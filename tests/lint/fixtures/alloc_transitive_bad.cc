// no-alloc-in-kernel-hot-path positive fixture (call-graph half): the inline
// Run/Dispatch roots allocate, and so do helpers reachable from the roots.
// Each of the four allocations fires once.
class Kernel {
 public:
  void Run() {
    heap_.push_back(0);  // fires: a root's own body
    Pump();
  }
  void Dispatch() { heap_.push_back(1); }  // fires: likewise
  void WaitUntil(long t) { Park(t); }

 private:
  void Pump() { buf_ = new char[64]; }        // fires: reached from Run
  void Park(long t) { queue_.push_back(t); }  // fires: reached from WaitUntil

  char* buf_ = nullptr;
  std::vector<long> heap_;
  std::vector<long> queue_;
};
