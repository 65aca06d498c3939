// NUMA-aware data placements supported by smart arrays (paper §4.1).
#ifndef SA_SMART_PLACEMENT_H_
#define SA_SMART_PLACEMENT_H_

#include <string>

#include "common/macros.h"

namespace sa::smart {

enum class Placement {
  kOsDefault,     // kernel first-touch; physical location depends on the initializer
  kSingleSocket,  // all pages pinned to one socket
  kInterleaved,   // pages round-robin across sockets
  kReplicated,    // one full replica per socket (read-only/read-mostly data)
};

// Placement plus its parameter (the target socket for kSingleSocket, and the
// socket assumed to have first-touched the pages for kOsDefault).
struct PlacementSpec {
  Placement kind = Placement::kOsDefault;
  int socket = 0;

  static PlacementSpec OsDefault(int first_touch_socket = 0) {
    return {Placement::kOsDefault, first_touch_socket};
  }
  static PlacementSpec SingleSocket(int socket) { return {Placement::kSingleSocket, socket}; }
  static PlacementSpec Interleaved() { return {Placement::kInterleaved, 0}; }
  static PlacementSpec Replicated() { return {Placement::kReplicated, 0}; }

  bool operator==(const PlacementSpec& other) const {
    return kind == other.kind && (kind != Placement::kSingleSocket || socket == other.socket);
  }
};

inline const char* ToString(Placement p) {
  switch (p) {
    case Placement::kOsDefault:
      return "os-default";
    case Placement::kSingleSocket:
      return "single-socket";
    case Placement::kInterleaved:
      return "interleaved";
    case Placement::kReplicated:
      return "replicated";
  }
  return "?";
}

inline std::string ToString(const PlacementSpec& spec) {
  std::string s = ToString(spec.kind);
  if (spec.kind == Placement::kSingleSocket) {
    // Appended piecewise: gcc 12 at -O3 reports `"(" + std::to_string(n)` as -Wrestrict.
    s += '(';
    s += std::to_string(spec.socket);
    s += ')';
  }
  return s;
}

}  // namespace sa::smart

#endif  // SA_SMART_PLACEMENT_H_
