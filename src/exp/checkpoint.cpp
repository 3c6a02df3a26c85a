#include "exp/checkpoint.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/serialize.hpp"
#include "util/fsio.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#define NB_HAVE_SIGKILL 1
#else
#define NB_HAVE_SIGKILL 0
#endif

namespace nb {

// ---------------------------------------------------------------------------
// CRC32, slicing-by-8.

namespace {

struct crc32_tables {
  std::uint32_t t[8][256];
  crc32_tables() noexcept {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int j = 1; j < 8; ++j) t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
    }
  }
};

const crc32_tables crc_;

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  // Endian-independent slicing: the four CRC bytes are folded explicitly,
  // never through a type-punned load.
  while (size >= 8) {
    c ^= static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
    c = crc_.t[7][c & 0xFFu] ^ crc_.t[6][(c >> 8) & 0xFFu] ^ crc_.t[5][(c >> 16) & 0xFFu] ^
        crc_.t[4][c >> 24] ^ crc_.t[3][p[4]] ^ crc_.t[2][p[5]] ^ crc_.t[1][p[6]] ^ crc_.t[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) c = crc_.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// File container.

namespace {

constexpr char checkpoint_magic[6] = {'N', 'B', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t checkpoint_version = 1;
// magic + version u32 + payload length u64 + CRC32 u32.
constexpr std::size_t checkpoint_header_size = sizeof(checkpoint_magic) + 4 + 8 + 4;

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const run_checkpoint& ckpt) {
  NB_REQUIRE(ckpt.balls_done >= 0 && ckpt.balls_done <= max_run_balls,
             "checkpoint ball count out of range");
  state_writer payload;
  payload.put_string(ckpt.process_name);
  payload.put_string(ckpt.engine);
  payload.put_u64(ckpt.cell);
  payload.put_u64(ckpt.seed);
  payload.put_i64(ckpt.balls_done);
  for (const std::uint64_t word : ckpt.rng_state) payload.put_u64(word);
  payload.put_vec(ckpt.process_state);
  const std::vector<std::uint8_t> body = payload.take();

  state_writer header;
  for (const char ch : checkpoint_magic) header.put_u8(static_cast<std::uint8_t>(ch));
  header.put_u32(checkpoint_version);
  header.put_u64(body.size());
  header.put_u32(crc32(body.data(), body.size()));
  std::vector<std::uint8_t> file = header.take();
  NB_ASSERT(file.size() == checkpoint_header_size);
  file.insert(file.end(), body.begin(), body.end());
  return file;
}

run_checkpoint decode_checkpoint(const std::vector<std::uint8_t>& bytes) {
  NB_REQUIRE(bytes.size() >= checkpoint_header_size,
             "checkpoint file truncated: shorter than its header");
  NB_REQUIRE(std::memcmp(bytes.data(), checkpoint_magic, sizeof(checkpoint_magic)) == 0,
             "not a noisebalance checkpoint file (bad magic)");
  state_reader header(bytes.data() + sizeof(checkpoint_magic),
                      checkpoint_header_size - sizeof(checkpoint_magic));
  const std::uint32_t version = header.get_u32();
  NB_REQUIRE(version == checkpoint_version,
             "unsupported checkpoint version " + std::to_string(version) + " (this build reads " +
                 std::to_string(checkpoint_version) + ")");
  const std::uint64_t length = header.get_u64();
  const std::uint32_t crc = header.get_u32();
  NB_REQUIRE(bytes.size() - checkpoint_header_size == length,
             "checkpoint file length does not match its header");
  const std::uint8_t* body = bytes.data() + checkpoint_header_size;
  NB_REQUIRE(crc32(body, static_cast<std::size_t>(length)) == crc,
             "checkpoint file failed its CRC check (corrupt or torn write)");

  state_reader r(body, static_cast<std::size_t>(length));
  run_checkpoint ckpt;
  ckpt.process_name = r.get_string();
  ckpt.engine = r.get_string();
  ckpt.cell = r.get_u64();
  ckpt.seed = r.get_u64();
  ckpt.balls_done = r.get_i64();
  for (std::uint64_t& word : ckpt.rng_state) word = r.get_u64();
  ckpt.process_state = r.get_vec<std::uint8_t>();
  r.expect_end();
  NB_REQUIRE(ckpt.balls_done >= 0 && ckpt.balls_done <= max_run_balls,
             "checkpoint ball count out of range");
  return ckpt;
}

void write_checkpoint_file(const std::string& path, const run_checkpoint& ckpt) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(ckpt);
  atomic_write_file(path, bytes.data(), bytes.size());
}

std::optional<run_checkpoint> try_read_checkpoint_file(const std::string& path) {
  auto bytes = read_file_bytes(path);
  if (!bytes.has_value()) return std::nullopt;
  try {
    return decode_checkpoint(*bytes);
  } catch (const contract_error& e) {
    // Add the path: "checkpoint CRC mismatch" alone is useless in a
    // campaign juggling one file per cell.
    throw contract_error(std::string(e.what()) + " [" + path + "]");
  }
}

// ---------------------------------------------------------------------------
// Capture / restore.

run_checkpoint capture_checkpoint(const any_process& process, const rng_t& rng,
                                  const std::string& engine_fingerprint, std::uint64_t cell,
                                  std::uint64_t seed) {
  return capture_checkpoint(process, rng, engine_fingerprint, cell, seed,
                            process.state().balls());
}

run_checkpoint capture_checkpoint(const any_process& process, const rng_t& rng,
                                  const std::string& engine_fingerprint, std::uint64_t cell,
                                  std::uint64_t seed, step_count progress) {
  run_checkpoint ckpt;
  ckpt.process_name = process.name();
  ckpt.engine = engine_fingerprint;
  ckpt.cell = cell;
  ckpt.seed = seed;
  ckpt.balls_done = progress;
  ckpt.rng_state = rng.state();
  state_writer w;
  process.save_checkpoint(w);
  ckpt.process_state = w.take();
  return ckpt;
}

step_count restore_checkpoint_identity(any_process& process, rng_t& rng,
                                       const run_checkpoint& ckpt,
                                       const std::string& engine_fingerprint, std::uint64_t cell,
                                       std::uint64_t seed) {
  NB_REQUIRE(ckpt.process_name == process.name(),
             "checkpoint belongs to process '" + ckpt.process_name + "', not '" + process.name() +
                 "'");
  NB_REQUIRE(ckpt.engine == engine_fingerprint,
             "checkpoint was written under engine '" + ckpt.engine + "', not '" +
                 engine_fingerprint + "' (shards are part of the sampling contract)");
  NB_REQUIRE(ckpt.cell == cell, "checkpoint belongs to a different campaign cell");
  NB_REQUIRE(ckpt.seed == seed, "checkpoint seed does not match this run's seed");
  state_reader r(ckpt.process_state);
  process.restore_checkpoint(r);
  r.expect_end();
  rng.set_state(ckpt.rng_state);
  return ckpt.balls_done;
}

step_count restore_from_checkpoint(any_process& process, rng_t& rng, const run_checkpoint& ckpt,
                                   const std::string& engine_fingerprint, std::uint64_t cell,
                                   std::uint64_t seed, step_count m) {
  NB_REQUIRE(ckpt.balls_done >= 0 && ckpt.balls_done <= m,
             "checkpoint ball count is outside this run's [0, m]");
  restore_checkpoint_identity(process, rng, ckpt, engine_fingerprint, cell, seed);
  NB_REQUIRE(process.state().balls() == ckpt.balls_done,
             "restored process disagrees with the checkpoint's ball count");
  return ckpt.balls_done;
}

// ---------------------------------------------------------------------------
// Crash-fault injection.

namespace {

/// NB_CRASH_AFTER_BALLS, read once; <= 0 or unparsable disarms the hook.
std::int64_t crash_limit() noexcept {
  static const std::int64_t limit = [] {
    const char* env = std::getenv("NB_CRASH_AFTER_BALLS");
    if (env == nullptr || *env == '\0') return std::int64_t{0};
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || v <= 0) return std::int64_t{0};
    return static_cast<std::int64_t>(v);
  }();
  return limit;
}

std::atomic<std::int64_t> crash_progress{0};

}  // namespace

void crash_test_tick(step_count balls) noexcept {
  const std::int64_t limit = crash_limit();
  if (limit <= 0 || balls <= 0) return;
  const std::int64_t before = crash_progress.fetch_add(balls, std::memory_order_relaxed);
  if (before < limit && before + balls >= limit) {
    // A real kill: no destructors, no flushes, no atexit.  Whatever the
    // checkpoint and journal layers made durable is all a resume gets.
#if NB_HAVE_SIGKILL
    (void)std::raise(SIGKILL);
#endif
    std::_Exit(137);  // unreachable on POSIX; the kill for everyone else
  }
}

// ---------------------------------------------------------------------------
// Window-aligned chunked driver.

run_result run_checkpointed(any_process& process, step_count m, rng_t& rng, run_engine& engine,
                            step_count checkpoint_every,
                            const std::function<void(step_count)>& at_mark) {
  NB_REQUIRE(m >= 0 && m <= max_run_balls, "ball count must be in [0, max_run_balls]");
  NB_REQUIRE(checkpoint_every >= 0 && checkpoint_every <= max_run_balls,
             "checkpoint cadence must be in [0, max_run_balls]");
  step_count done = process.state().balls();
  NB_REQUIRE(done <= m, "process already holds more balls than the requested total");
  const step_count every = checkpoint_every;
  step_count next_mark = every > 0 ? (done / every + 1) * every : 0;
  while (done < m) {
    const step_count remaining = m - done;
    const step_count window = process.snapshot_window();
    step_count chunk;
    if (window > 0) {
      // Frozen-window process: take the whole window (or the run end --
      // the uninterrupted run cuts there too).  Never cut mid-window, or
      // the shard/kernel engines would see a different token sequence.
      chunk = window < remaining ? window : remaining;
    } else {
      // Serial-path process: any cut is a boundary, so land on the mark.
      chunk = remaining;
      if (every > 0 && next_mark - done < chunk) chunk = next_mark - done;
    }
    engine.step(process, rng, chunk);
    done += chunk;
    if (every > 0 && done >= next_mark) {
      // No mark at the finish line: a completed run's result supersedes
      // its checkpoint (the campaign deletes the file right after).
      if (done < m && at_mark) at_mark(done);
      next_mark = (done / every + 1) * every;
    }
    crash_test_tick(chunk);
  }
  return detail::collect_run_result(process);
}

}  // namespace nb
