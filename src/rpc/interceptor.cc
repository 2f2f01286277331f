#include "src/rpc/interceptor.h"

#include "src/rpc/wire.h"

namespace itc::rpc {

namespace {

// Outcome recorded for a finished call: the transport status on failure,
// else the application status peeked from the reply prologue (every schema
// op's reply begins with a Status; non-schema replies are opaque).
Status OutcomeOf(const ServerCallInfo& info, const Result<Bytes>& result) {
  if (!result.ok()) return result.status();
  if (info.op == nullptr) return Status::kOk;
  Reader r(result.value());
  Status app = Status::kOk;
  if (r.ReadStatus(&app) != Status::kOk) return Status::kProtocolError;
  return app;
}

Status ClientOutcomeOf(const ClientCallInfo& info, const Result<Bytes>& result) {
  if (!result.ok()) return result.status();
  if (info.op == nullptr) return Status::kOk;
  Reader r(result.value());
  Status app = Status::kOk;
  if (r.ReadStatus(&app) != Status::kOk) return Status::kProtocolError;
  return app;
}

bool RetryableTransportFailure(Status s) {
  return s == Status::kUnavailable || s == Status::kTimedOut;
}

}  // namespace

// --- Server side -------------------------------------------------------------

Result<Bytes> ServerInterceptorChain::Run(ServerCallInfo& info, const Bytes& request,
                                          ServerInterceptor::Next terminal) const {
  return RunFrom(0, info, request, terminal);
}

Result<Bytes> ServerInterceptorChain::RunFrom(size_t index, ServerCallInfo& info,
                                              const Bytes& request,
                                              ServerInterceptor::Next terminal) const {
  if (index == interceptors_.size()) return terminal(request);
  // The closure lives until Intercept returns, as long as `next` may be used.
  const auto next = [this, index, &info, terminal](const Bytes& req) {
    return RunFrom(index + 1, info, req, terminal);
  };
  return interceptors_[index]->Intercept(info, request, next);
}

Result<Bytes> ServerTracingInterceptor::Intercept(ServerCallInfo& info,
                                                  const Bytes& request,
                                                  Next next) {
  // Snapshot arrival before an inner interceptor injects delay: latency is
  // measured from when the request reached the server.
  const SimTime arrival = info.arrival;
  Result<Bytes> result = next(request);
  if (stats_ != nullptr) {
    const SimTime completion = info.completion != nullptr ? *info.completion : arrival;
    stats_->Record(info.opcode, info.op != nullptr ? info.op->name : "unknown",
                   info.op != nullptr ? info.op->call_class : CallClass::kOther,
                   completion - arrival, request.size(),
                   result.ok() ? result.value().size() + BulkSize(info.bulk) : 0,
                   OutcomeOf(info, result));
  }
  return result;
}

bool FaultInjectionInterceptor::Matches(const ServerCallInfo& info,
                                        const std::optional<CallClass>& only) {
  if (!only.has_value()) return true;
  return info.op != nullptr && info.op->call_class == *only;
}

Result<Bytes> FaultInjectionInterceptor::Intercept(ServerCallInfo& info,
                                                   const Bytes& request,
                                                   Next next) {
  if (fail_all_) return Status::kUnavailable;

  if (fail_count_ > 0) {
    if (fail_skip_ > 0) {
      fail_skip_ -= 1;
    } else {
      fail_count_ -= 1;
      return fail_error_;
    }
  }

  if (drop_replies_ > 0 && Matches(info, drop_replies_class_)) {
    drop_replies_ -= 1;
    // The request reached the server and executed; only the reply is lost.
    (void)next(request);
    return Status::kUnavailable;
  }

  if (Matches(info, config_.only_class)) {
    if (config_.drop_probability > 0 && rng_.Chance(config_.drop_probability)) {
      return Status::kUnavailable;  // request lost before the server saw it
    }
    if (config_.error_probability > 0 && rng_.Chance(config_.error_probability)) {
      return config_.error;
    }
    if (config_.delay_probability > 0 && rng_.Chance(config_.delay_probability)) {
      info.arrival += config_.delay;
    }
    if (config_.reply_drop_probability > 0 &&
        rng_.Chance(config_.reply_drop_probability)) {
      (void)next(request);
      return Status::kUnavailable;
    }
  }
  return next(request);
}

// --- Client side -------------------------------------------------------------

Result<Bytes> ClientInterceptorChain::Run(ClientCallInfo& info, const Bytes& request,
                                          ClientInterceptor::Next terminal) const {
  return RunFrom(0, info, request, terminal);
}

Result<Bytes> ClientInterceptorChain::RunFrom(size_t index, ClientCallInfo& info,
                                              const Bytes& request,
                                              ClientInterceptor::Next terminal) const {
  if (index == interceptors_.size()) return terminal(request);
  const auto next = [this, index, &info, terminal](const Bytes& req) {
    return RunFrom(index + 1, info, req, terminal);
  };
  return interceptors_[index]->Intercept(info, request, next);
}

Result<Bytes> ClientTracingInterceptor::Intercept(ClientCallInfo& info,
                                                  const Bytes& request,
                                                  Next next) {
  const SimTime start = info.clock != nullptr ? info.clock->now() : 0;
  Result<Bytes> result = next(request);
  if (stats_ != nullptr) {
    const SimTime end = info.clock != nullptr ? info.clock->now() : start;
    const uint64_t bulk_bytes = info.bulk != nullptr ? BulkSize(*info.bulk) : 0;
    stats_->Record(info.opcode, info.op != nullptr ? info.op->name : "unknown",
                   info.op != nullptr ? info.op->call_class : CallClass::kOther,
                   end - start, request.size(),
                   result.ok() ? result.value().size() + bulk_bytes : 0,
                   ClientOutcomeOf(info, result));
  }
  return result;
}

Result<Bytes> RetryInterceptor::Intercept(ClientCallInfo& info, const Bytes& request,
                                          Next next) {
  Result<Bytes> result = next(request);
  // Stream transport delivers reliably at the transport level; and without
  // schema metadata declaring the op idempotent, a blind resend could run a
  // mutator twice — at-most-once wins (§3.5.3).
  if (info.transport != Transport::kDatagram) return result;
  if (info.op == nullptr || !info.op->idempotent) return result;

  SimTime backoff = policy_.initial_backoff;
  for (uint32_t retry = 0; retry < policy_.max_retries; ++retry) {
    if (result.ok() || !RetryableTransportFailure(result.status())) return result;
    if (info.clock != nullptr && backoff > 0) info.clock->Advance(backoff);
    backoff *= 2;
    info.attempts += 1;
    result = next(request);
  }
  return result;
}

Result<Bytes> DeadlineInterceptor::Intercept(ClientCallInfo& info, const Bytes& request,
                                             Next next) {
  if (deadline_ <= 0 || info.clock == nullptr) return next(request);
  const SimTime start = info.clock->now();
  Result<Bytes> result = next(request);
  if (info.clock->now() - start > deadline_) return Status::kTimedOut;
  return result;
}

}  // namespace itc::rpc
