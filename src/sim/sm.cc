#include "sim/sm.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace stemroot::sim {

namespace {

/// First-round issue order of a wave of `n` warps. The schedule is a
/// min-heap on `ready`: `std::push_heap` / `std::pop_heap` with
/// `std::greater` on a vector, the calls the standard library's priority
/// queue is defined by. All n warps enter with the same key, so the
/// library's tie-breaking alone fixes who issues first; every later key
/// is strictly larger than all earlier ones (ExecuteWave checks this), so
/// the heap then pops in push order and repeats this order, minus
/// finished warps. Derived by replaying the first round: n equal keys,
/// then n times pop and push a larger key.
std::vector<uint32_t> HeapFirstRound(uint32_t n) {
  struct Entry {
    uint32_t key;
    uint32_t warp;
    bool operator>(const Entry& other) const { return key > other.key; }
  };
  const std::greater<Entry> later;
  std::vector<Entry> heap;
  heap.reserve(n);
  for (uint32_t w = 0; w < n; ++w) {
    heap.push_back({0, w});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  std::vector<uint32_t> order;
  order.reserve(n);
  for (uint32_t key = 1; key <= n; ++key) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const uint32_t warp = heap.back().warp;
    heap.pop_back();
    order.push_back(warp);
    heap.push_back({key, warp});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  return order;
}

/// HeapFirstRound(n), computed once per n and thread. Kept out of
/// SmModel so sizeof(Simulator), which enters the logical "sim" memory
/// peak, stays a function of the SimConfig geometry alone.
const std::vector<uint32_t>& FirstRoundOrder(uint32_t n) {
  thread_local std::vector<std::vector<uint32_t>> orders;
  if (orders.size() <= n) orders.resize(n + 1);
  std::vector<uint32_t>& order = orders[n];
  if (order.size() != n) order = HeapFirstRound(n);
  return order;
}

}  // namespace

void SmStats::Merge(const SmStats& other) {
  warp_instructions += other.warp_instructions;
  l1_hits += other.l1_hits;
  l1_misses += other.l1_misses;
  l2_hits += other.l2_hits;
  l2_misses += other.l2_misses;
  dram_bytes += other.dram_bytes;
}

SmModel::SmModel(const SimConfig& config, Cache* l2, DramModel* dram)
    : config_(config),
      l1_(config.l1_bytes, config.l1_assoc, config.line_bytes),
      l2_(l2), dram_(dram) {
  config.Validate();
}

void SmModel::ResetL1() { l1_.Flush(); }

double SmModel::ExecuteWave(std::vector<WarpContext>& warps,
                            double start_cycle,
                            const PeerWarming& peer_warming,
                            SmStats* stats) {
  for (WarpContext& warp : warps) {
    // The first-round order assumes every warp issues once; a fresh
    // WarpProgram always has at least one instruction.
    if (warp.program->InstructionsRemaining() == 0)
      throw std::logic_error("SmModel::ExecuteWave: warp has no instructions");
    warp.ready = start_cycle;
    warp.result_ready = start_cycle;
  }

  // Round-robin issue ring, in exactly the order of a min-heap on `ready`
  // (DESIGN.md §12): the heap's first-round order, then the same order
  // every round, with finished warps compacted out.
  std::vector<uint32_t> ring =
      FirstRoundOrder(static_cast<uint32_t>(warps.size()));

  const double issue_interval = 1.0 / config_.issue_width;
  double issue_free = start_cycle;
  double finish = start_cycle;
  double last_ready = start_cycle;
  WarpInstr instr;

  while (!ring.empty()) {
    size_t live = 0;
    for (const uint32_t w : ring) {
      WarpContext& warp = warps[w];
      if (!warp.program->Next(instr)) {
        finish = std::max(finish, warp.ready);
        continue;
      }
      if (stats) ++stats->warp_instructions;

      // Issue: wait for the warp's own readiness, for the previous result if
      // dependent, and for an issue slot.
      double t = std::max(warp.ready, issue_free);
      if (instr.depends_on_prev) t = std::max(t, warp.result_ready);
      issue_free = t + issue_interval;

      double result_at = t;
      switch (instr.kind) {
        case OpKind::kAlu:
          result_at = t + config_.alu_latency;
          break;
        case OpKind::kFp32:
          result_at = t + config_.fp32_latency;
          break;
        case OpKind::kFp16:
          result_at = t + config_.fp16_latency;
          break;
        case OpKind::kSfu:
          result_at = t + config_.sfu_latency;
          break;
        case OpKind::kSharedMem:
          result_at = t + config_.shmem_latency;
          break;
        case OpKind::kBranch:
          // Divergent branches serialize both paths at the issue stage;
          // modelled as an extra issue bubble.
          result_at = t + config_.alu_latency;
          issue_free += issue_interval;
          break;
        case OpKind::kLoad:
        case OpKind::kStore: {
          double data_at = t;
          for (uint64_t line : instr.lines) {
            double line_at;
            if (l1_.Access(line)) {
              if (stats) ++stats->l1_hits;
              line_at = t + config_.l1_latency;
            } else {
              if (stats) ++stats->l1_misses;
              if (l2_->Access(line)) {
                if (stats) ++stats->l2_hits;
                line_at = t + config_.l1_latency + config_.l2_latency;
              } else {
                if (stats) {
                  ++stats->l2_misses;
                  stats->dram_bytes += config_.line_bytes;
                }
                line_at = dram_->Request(t + config_.l1_latency +
                                             config_.l2_latency,
                                         config_.line_bytes);
                // Peer SMs are missing sibling lines of the same region
                // concurrently: insert them so the shared L2's content
                // evolves at machine rate (timing unaffected -- peer DRAM
                // traffic is already modelled by the per-SM bandwidth
                // share).
                if (peer_warming.peers > 0 &&
                    line >= peer_warming.region_base) {
                  // Peer p inserts sibling (line_index + p * kPeerStride)
                  // mod F, stepped here by kPeerStride mod F per peer. Warp
                  // lines lie inside the region (line_index < F) and
                  // p * kPeerStride < 2^64 - 2^62, so for any footprint
                  // below 2^62 lines that sum never wraps and the running
                  // value equals its modulus exactly.
                  constexpr uint64_t kPeerStride = 2654435761ULL;
                  const uint64_t footprint = peer_warming.footprint_lines;
                  const uint64_t step = kPeerStride % footprint;
                  uint64_t sibling =
                      (line - peer_warming.region_base) / config_.line_bytes %
                      footprint;
                  for (uint32_t peer = 1; peer <= peer_warming.peers;
                       ++peer) {
                    sibling += step;
                    if (sibling >= footprint) sibling -= footprint;
                    (void)l2_->Access(peer_warming.region_base +
                                      sibling * config_.line_bytes);
                  }
                }
              }
            }
            data_at = std::max(data_at, line_at);
          }
          // Stores retire through the write buffer: the warp does not wait.
          result_at = instr.kind == OpKind::kLoad ? data_at : t + 1.0;
          break;
        }
      }

      // Pipelined issue: the warp may issue its next (independent)
      // instruction one issue slot later; dependent consumers wait for
      // result_ready.
      warp.ready = t + 1.0;
      warp.result_ready = result_at;
      finish = std::max(finish, result_at);
      // A heap whose keys only grow is a FIFO: the ring's order holds
      // exactly while every new `ready` exceeds the one pushed before it.
      if (!(warp.ready > last_ready))
        throw std::logic_error(
            "SmModel::ExecuteWave: issue times stopped increasing");
      last_ready = warp.ready;
      ring[live++] = w;
    }
    ring.resize(live);
  }
  return finish;
}

}  // namespace stemroot::sim
