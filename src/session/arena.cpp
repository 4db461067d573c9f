#include "session/arena.hpp"

namespace protoobf {

void SessionArena::shrink() {
  wire_ = Bytes();
  frame_ = Bytes();
  workspace_.shrink();
}

}  // namespace protoobf
