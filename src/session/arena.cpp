#include "session/arena.hpp"

namespace protoobf {

void SessionArena::shrink() {
  wire_ = Bytes();
  frame_ = Bytes();
  scratch_.shrink();
  derive_ = DeriveScratch();
  nodes_.shrink();
}

}  // namespace protoobf
