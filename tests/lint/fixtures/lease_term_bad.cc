// Fixture: raw numeric lease durations outside the two constants' headers.
#include "src/common/types.h"

namespace itc {

void Offenders(SimTime now) {
  SimTime lease_expiry = now + Seconds(30);  // 1: expiry from a literal
  (void)lease_expiry;
  SuspendLeaseGrantsUntil(now + Seconds(30));  // 2: embargo from a literal
  if (lease_expiry - now < Millis(500)) {  // 3: renewal margin from a literal
    RenewLeases();
  }
}

void ServerOffenders(SimTime at) {
  callbacks_.SuspendLeasesUntil(at + sim::Seconds(90));  // 4: docs/LINT.md's example
  callbacks_.RenewLeases(sink, fids, at, Seconds(30));   // 5: renewal term from a literal
}

}  // namespace itc
