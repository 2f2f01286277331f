#include "src/vice/recovery/stable_store.h"

#include <utility>

namespace itc::vice::recovery {

void StableStore::CheckpointVolume(const Volume& vol, SimTime clock) {
  std::unique_ptr<Volume> snap = vol.Snapshot();
  snap->set_now(clock);
  images_[vol.id()] = Image{std::move(snap), std::nullopt};
}

uint64_t StableStore::image_bytes() const {
  uint64_t total = 0;
  for (const auto& [id, img] : images_) {
    if (!img.dump_bytes.has_value()) img.dump_bytes = img.snap->DumpSize();
    total += *img.dump_bytes;
  }
  return total;
}

uint64_t StableStore::RetainedContentBytes(std::unordered_set<const void*>* seen) const {
  uint64_t total = 0;
  for (const auto& [id, img] : images_) total += img.snap->RetainedContentBytes(seen);
  for (const auto& rec : log_.records()) total += rec.contents.RetainedBytes(seen);
  return total;
}

Result<std::vector<std::unique_ptr<Volume>>> StableStore::RestoreVolumes() const {
  std::vector<std::unique_ptr<Volume>> out;
  out.reserve(images_.size());
  for (const auto& [id, img] : images_) out.push_back(img.snap->Snapshot());
  return out;
}

}  // namespace itc::vice::recovery
