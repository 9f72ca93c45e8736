// Lint fixture: nested acquisition inverting a declared edge. The
// hierarchy in docs/LOCK_ORDER.md declares
//   engine.out -> net.inbox
// so taking an outbox lock while holding an inbox lock is an
// inversion. Expected diagnostic: [lock-order] at the inner MutexLock.
#include "common/mutex.h"

namespace lint_fixture {

struct Box {
  sy::Mutex mu;
  int items = 0;
};

class Router {
 public:
  void Deliver(Box* inbox) {
    sy::MutexLock lock(&inbox->mu);
    {
      sy::MutexLock out_lock(&out->mu);  // planted inversion
      ++out->items;
    }
    ++inbox->items;
  }

 private:
  Box* out = nullptr;
};

}  // namespace lint_fixture
