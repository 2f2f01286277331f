// Fixture: lease durations read from the two constants; unrelated literals
// stay legal, as does a suppressed occurrence.
#include "src/common/types.h"

namespace itc {

void Legal(SimTime now) {
  SimTime lease_expiry = now + vice::kLeaseTerm;  // the one term
  (void)lease_expiry;
  SuspendLeaseGrantsUntil(now + vice::kLeaseTerm);
  callbacks_.SuspendLeasesUntil(now + vice::kLeaseTerm);
  if (lease_expiry - now < venus::kLeaseRenewMargin) {
    RenewLeases();
  }
  // A time literal with no lease identifier in the statement is not a lease
  // term at all.
  Sleep(Seconds(30));
  const SimTime deadline = now + Millis(500);
  (void)deadline;
  // itcfs-lint: allow(no-raw-lease-term)
  SimTime lease_probe = now + Seconds(1);
  (void)lease_probe;
}

}  // namespace itc
