// A non-owning reference to a callable, for callbacks that never outlive the
// call they are passed to (the RPC interceptor chain's `Next`). Unlike
// std::function it never allocates: it holds the callable's address and one
// function pointer. The referenced callable must outlive every call through
// the reference; a FunctionRef to a temporary is valid only until the end of
// the full expression that created it.

#ifndef SRC_COMMON_FUNCTION_REF_H_
#define SRC_COMMON_FUNCTION_REF_H_

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace itc {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor): a callback slot
      : callable_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        invoke_([](void* callable, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(callable),
                             std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return invoke_(callable_, std::forward<Args>(args)...); }

 private:
  void* callable_;
  R (*invoke_)(void*, Args...);
};

}  // namespace itc

#endif  // SRC_COMMON_FUNCTION_REF_H_
