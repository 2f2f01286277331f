// no-alloc-in-kernel-hot-path negative fixture (call-graph half): reachable
// helpers only write into pre-sized storage or carry a reasoned suppression,
// and allocation in code the kernel cannot reach is out of scope.
class Kernel {
 public:
  void Run() {
    Pump();
    Cold();
  }
  void WaitUntil(long t) { Park(t); }

 private:
  void Pump() { buf_[head_] = 1; }
  void Park(long t) { queue_[head_++] = t; }  // pre-sized in-place write
  void Cold() {
    // itcfs-lint: allow(no-alloc-in-kernel-hot-path) -- startup growth only
    queue_.push_back(0);
  }

  char buf_[8] = {};
  long head_ = 0;
  std::vector<long> queue_;
};

class Registry {
 public:
  void Add() { items_.push_back(1); }  // never reachable from the kernel

 private:
  std::vector<int> items_;
};
