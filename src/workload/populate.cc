#include "src/workload/populate.h"

#include <utility>
#include <vector>

#include "src/common/content.h"
#include "src/common/rng.h"
#include "src/workload/source_tree.h"
#include "src/workload/synthetic_user.h"

namespace itc::workload {

// Population installs content::Ref records instead of materialized byte
// vectors: the bytes a ref denotes are identical to what
// SynthesizeContents(seed, size) returns (Ref::ForSeed draws the same phase
// from the same Rng stream), but a populated file costs ~32 bytes of host
// memory until someone actually stores over it. Each call loads its volume
// as one batch, so the volume is checkpointed once rather than once per file.

Status PopulateUserFiles(campus::Campus& campus, VolumeId user_volume, uint32_t count,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<campus::Campus::DirectFile> files;
  files.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t size = SampleFileSize(FileClass::kUserData, rng);
    files.push_back({"/" + SyntheticUser::OwnFileName(i), content::Ref::ForSeed(seed ^ i, size)});
  }
  return campus.PopulateDirect(user_volume, std::move(files));
}

Status PopulateSystemBinaries(campus::Campus& campus, VolumeId system_volume,
                              uint32_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<campus::Campus::DirectFile> files;
  files.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t size = SampleFileSize(FileClass::kSystemBinary, rng);
    files.push_back({"/bin/" + SyntheticUser::SystemFileName(i),
                     content::Ref::ForSeed(seed ^ (0xb1ull << 32) ^ i, size)});
  }
  return campus.PopulateDirect(system_volume, std::move(files));
}

}  // namespace itc::workload
