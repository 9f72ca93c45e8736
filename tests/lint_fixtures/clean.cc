// Lint fixture control: idiomatic sy:: locking that must lint clean —
// scoped critical sections, declared-order nesting (outbox before
// inbox, matching docs/LOCK_ORDER.md), balanced manual Lock/Unlock.
#include "common/mutex.h"

namespace lint_fixture {

struct Box {
  sy::Mutex mu;
  int items = 0;
};

class GoodRouter {
 public:
  void Forward(Box* inbox) {
    sy::MutexLock out_lock(&out->mu);
    {
      sy::MutexLock lock(&inbox->mu);
      ++inbox->items;
    }
    ++out->items;
  }

  void ManualPair() {
    out->mu.Lock();
    ++out->items;
    out->mu.Unlock();
  }

 private:
  Box* out = nullptr;
};

}  // namespace lint_fixture
