// M1 — Microbenchmarks (google-benchmark).
//
// Host-CPU cost of the primitives the system is built from: the block
// cipher and sealed envelope, the authentication handshake, wire
// serialization, CPS computation over deep group structures, path
// resolution in the local file system, directory serialization, cache
// lookups, generative-content recognition, a full warm open through
// Venus, and populating a home volume. These measure the implementation
// itself (real microseconds, not the 1985 cost model).

#include <benchmark/benchmark.h>

#include <string>

#include "src/campus/campus.h"
#include "src/common/content.h"
#include "src/crypto/cbc.h"
#include "src/crypto/handshake.h"
#include "src/crypto/xtea.h"
#include "src/crypto/xtea_rows.h"
#include "src/protection/protection_db.h"
#include "src/rpc/wire.h"
#include "src/unixfs/file_system.h"
#include "src/workload/populate.h"
#include "src/workload/zipf.h"

namespace {

using namespace itc;

void BM_XteaBlock(benchmark::State& state) {
  crypto::Key key;
  key.bytes.fill(0x42);
  const crypto::XteaSchedule schedule(key);
  uint32_t block[2] = {1, 2};
  for (auto _ : state) {
    crypto::XteaEncryptBlock(schedule, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_XteaBlock);

// The rows of a 256 KB message through one build of the row kernel
// (src/crypto/xtea_rows.h), encrypted and then decrypted, so one host
// reports every level it can run.
void BM_XteaRows(benchmark::State& state, crypto::rows::Level level) {
  const crypto::rows::Build& build = crypto::rows::BuildFor(level);
  if (!crypto::rows::CpuSupports(level)) {
    state.SkipWithError((std::string("this CPU cannot run ") + build.name).c_str());
    return;
  }
  crypto::Key key;
  key.bytes.fill(0x17);
  const crypto::XteaSchedule schedule(key);
  constexpr size_t kBytes = 256 * 1024;
  Bytes data(kBytes, 0x5a), plain(kBytes);
  const Bytes chain(crypto::kXteaLanes * crypto::kBlockSize, 0xc3);
  for (auto _ : state) {
    build.encrypt(schedule, chain.data(), data.data(), kBytes / crypto::kBlockSize);
    build.decrypt(schedule, chain.data(), data.data(), plain.data(), kBytes / crypto::kBlockSize);
    benchmark::DoNotOptimize(plain.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 * kBytes);
}
BENCHMARK_CAPTURE(BM_XteaRows, x86-64, crypto::rows::Level::kBaseline);
BENCHMARK_CAPTURE(BM_XteaRows, x86-64-v3, crypto::rows::Level::kV3);
BENCHMARK_CAPTURE(BM_XteaRows, x86-64-v4, crypto::rows::Level::kV4);

// The two halves of the sealed envelope are timed apart. Each runs one row
// of crypto::kXteaLanes blocks per pass (Seal's lanes are interleaved CBC
// chains; Open's decryptions are independent), so the two cost about the
// same, and CI fails a BM_Seal/262144 above 1.5x BM_Open/262144. The label
// names the build of the row kernel that ran.
void BM_Seal(benchmark::State& state) {
  crypto::Key key;
  key.bytes.fill(0x17);
  Bytes payload(static_cast<size_t>(state.range(0)), 0x5a);
  uint64_t seq = 0;
  for (auto _ : state) {
    Bytes sealed = crypto::Seal(key, payload, ++seq);
    benchmark::DoNotOptimize(sealed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.SetLabel(crypto::rows::ActiveBuild().name);
}
BENCHMARK(BM_Seal)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_Open(benchmark::State& state) {
  crypto::Key key;
  key.bytes.fill(0x17);
  const Bytes sealed =
      crypto::Seal(key, Bytes(static_cast<size_t>(state.range(0)), 0x5a), /*iv_seed=*/1);
  for (auto _ : state) {
    auto opened = crypto::Open(key, sealed);
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.SetLabel(crypto::rows::ActiveBuild().name);
}
BENCHMARK(BM_Open)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_Handshake(benchmark::State& state) {
  const crypto::Key key = crypto::DeriveKeyFromPassword("pw", "realm");
  uint64_t nonce = 0;
  for (auto _ : state) {
    crypto::ClientHandshake client(7, key, ++nonce);
    crypto::ServerHandshake server([&key](UserId) { return std::optional(key); }, nonce);
    Bytes m1 = client.Start();
    auto m2 = server.HandleHello(m1);
    auto m3 = client.HandleChallenge(*m2);
    auto m4 = server.HandleResponse(*m3);
    auto secret = client.HandleSessionGrant(*m4);
    benchmark::DoNotOptimize(secret);
  }
}
BENCHMARK(BM_Handshake);

void BM_WireRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    rpc::Writer w;
    w.PutFid(Fid{1, 2, 3});
    w.PutU64(424242);
    w.PutString("lib/module/source.c");
    Bytes buf = w.Take();
    rpc::Reader r(buf);
    auto fid = r.FidField();
    auto v = r.U64();
    auto s = r.String();
    benchmark::DoNotOptimize(fid);
    benchmark::DoNotOptimize(v);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_WireRoundTrip);

void BM_CpsComputation(benchmark::State& state) {
  protection::ProtectionDb db;
  const auto user = *db.CreateUser("u", "pw");
  // A membership chain `depth` groups deep plus fan-out siblings.
  GroupId prev = 0;
  for (int64_t i = 0; i < state.range(0); ++i) {
    GroupId g = *db.CreateGroup("g" + std::to_string(i));
    if (i == 0) {
      (void)db.AddToGroup(protection::Principal::User(user), g);
    } else {
      (void)db.AddToGroup(protection::Principal::Group(prev), g);
    }
    prev = g;
  }
  for (auto _ : state) {
    auto cps = db.CPS(user);
    benchmark::DoNotOptimize(cps);
  }
}
BENCHMARK(BM_CpsComputation)->Arg(4)->Arg(16)->Arg(64);

void BM_UnixFsResolve(benchmark::State& state) {
  unixfs::FileSystem fs;
  std::string path;
  for (int i = 0; i < 8; ++i) {
    path += "/d" + std::to_string(i);
    (void)fs.MkDir(path);
  }
  (void)fs.WriteFile(path + "/leaf", ToBytes("x"));
  const std::string target = path + "/leaf";
  for (auto _ : state) {
    auto inode = fs.Resolve(target);
    benchmark::DoNotOptimize(inode);
  }
}
BENCHMARK(BM_UnixFsResolve);

void BM_DirectorySerialize(benchmark::State& state) {
  vice::DirMap entries;
  for (int64_t i = 0; i < state.range(0); ++i) {
    entries["entry" + std::to_string(i)] =
        vice::DirItem{vice::DirItem::Kind::kFile,
                      Fid{1, static_cast<uint32_t>(i + 2), 1}, kInvalidVolume};
  }
  for (auto _ : state) {
    Bytes data = vice::SerializeDirectory(entries);
    auto parsed = vice::DeserializeDirectory(data);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_DirectorySerialize)->Arg(16)->Arg(256);

void BM_ZipfSample(benchmark::State& state) {
  workload::ZipfSampler zipf(1000, 0.9);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

// The argument is the number of users, each with a home volume mounted
// under /usr: every walk to /vice/usr/u/f looks one name up in /usr, so the
// 1000-user arm shows the per-walk cost a one-user campus hides.
void BM_VenusWarmOpen(benchmark::State& state) {
  campus::Campus campus(campus::CampusConfig::Revised(1, 1));
  (void)campus.SetupRootVolume();
  auto home = campus.AddUserWithHome("u", "pw", 0);
  for (int64_t i = 1; i < state.range(0); ++i) {
    (void)campus.AddUserWithHome("u" + std::to_string(i), "pw", 0);
  }
  auto& ws = campus.workstation(0);
  (void)ws.LoginWithPassword(home->user, "pw");
  (void)ws.WriteWholeFile("/vice/usr/u/f", ToBytes("warm file"));
  (void)ws.ReadWholeFile("/vice/usr/u/f");
  for (auto _ : state) {
    auto data = ws.ReadWholeFile("/vice/usr/u/f");
    benchmark::DoNotOptimize(data);
  }
}
BENCHMARK(BM_VenusWarmOpen)->Arg(1)->Arg(1000);

// Store-back and populate canonicalize every buffer: phase-matching a 64 KB
// generative file (the timed loop includes one 64 KB copy, as Canonicalize
// consumes its argument).
void BM_Canonicalize(benchmark::State& state) {
  const Bytes data = content::Synthesize(/*phase=*/7, 0, 65536);
  for (auto _ : state) {
    content::Ref ref = content::Ref::Canonicalize(Bytes(data));
    benchmark::DoNotOptimize(ref);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_Canonicalize);

// Campus set-up's populate step: PopulateUserFiles loads state.range(0)
// files into one home volume. The first iteration creates them, later ones
// replace them, so every iteration loads the same volume size.
void BM_PopulateUserFiles(benchmark::State& state) {
  campus::Campus campus(campus::CampusConfig::Revised(1, 1));
  (void)campus.SetupRootVolume();
  auto home = campus.AddUserWithHome("u", "pw", 0);
  const auto count = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::PopulateUserFiles(campus, home->volume, count, 1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * count);
}
BENCHMARK(BM_PopulateUserFiles)->Arg(60)->Arg(600);

// Cold fetch of one file of state.range(0) bytes. state.range(1) seals the
// connection: sealed, the file is materialized into the encrypted reply;
// unsealed, the server's ref travels beside the reply into the cache.
void BM_WholeFileFetch(benchmark::State& state) {
  campus::CampusConfig config = campus::CampusConfig::Revised(1, 1);
  config.rpc.encrypt = state.range(1) != 0;
  campus::Campus campus(config);
  (void)campus.SetupRootVolume();
  auto home = campus.AddUserWithHome("u", "pw", 0);
  (void)campus.PopulateDirect(home->volume, "/f",
                              Bytes(static_cast<size_t>(state.range(0)), 0x3c));
  auto& ws = campus.workstation(0);
  (void)ws.LoginWithPassword(home->user, "pw");
  for (auto _ : state) {
    ws.venus().FlushCache();
    auto data = ws.ReadWholeFile("/vice/usr/u/f");
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_WholeFileFetch)
    ->ArgNames({"bytes", "sealed"})
    ->ArgsProduct({{4096, 65536, 1 << 20}, {1, 0}});

}  // namespace

BENCHMARK_MAIN();
