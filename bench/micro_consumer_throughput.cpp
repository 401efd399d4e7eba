// Consumer drain throughput: offline (produce everything, then one
// drain_merged pass) vs live (a concurrent consumer daemon draining while
// producers push). The live path adds the batched-pop merge machinery and
// real thread contention; the acceptance bar is live >= offline within 10%
// on records/sec. Also isolates the pop-side batching win (try_pop_batch vs
// one-at-a-time try_pop). The paced row measures what the daemon costs
// beside a producer that trickles, as the simulator does.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <thread>
#include <vector>

#include "tracebuf/channel_set.hpp"
#include "tracebuf/consumer.hpp"

namespace {

using namespace osn;

constexpr std::size_t kCpus = 4;
constexpr std::uint64_t kPerCpu = 200'000;

tracebuf::EventRecord rec(TimeNs ts, std::uint16_t cpu, std::uint64_t arg) {
  tracebuf::EventRecord r;
  r.timestamp = ts;
  r.cpu = cpu;
  r.arg = arg;
  return r;
}

void fill_channels(tracebuf::ChannelSet& cs) {
  for (std::uint64_t i = 0; i < kPerCpu; ++i)
    for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu)
      cs.emit(cpu, rec(i, cpu, i));
}

// Baseline: buffers already full, one offline k-way merge over everything.
void BM_DrainOffline(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    tracebuf::ChannelSet cs(kCpus, 1u << 18);
    fill_channels(cs);
    state.ResumeTiming();
    benchmark::DoNotOptimize(cs.drain_merged());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCpus * kPerCpu));
}
BENCHMARK(BM_DrainOffline)->Unit(benchmark::kMillisecond);

// Inline consumer drain over pre-filled buffers: same input as the offline
// baseline, but through the batched-pop incremental merge.
void BM_DrainConsumerInline(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    tracebuf::ChannelSet cs(kCpus, 1u << 18);
    fill_channels(cs);
    state.ResumeTiming();
    std::uint64_t sink = 0;
    tracebuf::Consumer consumer(
        cs, [&](const tracebuf::EventRecord& r) { sink += r.arg; }, batch);
    consumer.stop();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCpus * kPerCpu));
}
BENCHMARK(BM_DrainConsumerInline)->Arg(1)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// The real pipeline: one producer thread per channel pushing concurrently
// with the consumer daemon; timing covers first push to last merged emit.
void BM_DrainLive(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    tracebuf::ChannelSet cs(kCpus, 1u << 18);
    state.ResumeTiming();

    std::uint64_t sink = 0;
    tracebuf::Consumer consumer(
        cs, [&](const tracebuf::EventRecord& r) { sink += r.arg; }, batch);
    consumer.start();
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu) {
      producers.emplace_back([&, cpu] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::uint64_t i = 0; i < kPerCpu; ++i) {
          while (!cs.emit(cpu, rec(i, cpu, i))) std::this_thread::yield();
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : producers) t.join();
    consumer.stop();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCpus * kPerCpu));
}
BENCHMARK(BM_DrainLive)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// A producer paced by the steady clock at the simulator's rate, ~0.5
// records/us per CPU (2 records/us over the four channels), for 20 ms per
// iteration. It measures its own thread CPU; the process CPU beyond it is
// the daemon's (plus stop()'s residue drain), reported per record. The
// wall time is the pacing, not a cost.
void BM_DrainPaced(benchmark::State& state) {
  constexpr std::uint64_t kRecords = 40'000;
  constexpr auto kPeriod = std::chrono::nanoseconds(500);
  std::int64_t consumer_ns = 0;
  std::uint64_t records = 0;
  std::uint64_t batches = 0;
  for (auto _ : state) {
    tracebuf::ChannelSet cs(kCpus, 1u << 16);
    std::uint64_t sink = 0;
    tracebuf::Consumer consumer(cs, [&](const tracebuf::EventRecord& r) { sink += r.arg; });
    const std::int64_t process_start = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    consumer.start();
    std::int64_t producer_ns = 0;
    std::thread producer([&] {
      const std::int64_t self_start = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
      const auto start = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < kRecords; ++i) {
        while (std::chrono::steady_clock::now() < start + i * kPeriod) {
        }
        const auto cpu = static_cast<std::uint16_t>(i % kCpus);
        while (!cs.emit(cpu, rec(static_cast<TimeNs>(i), cpu, i))) std::this_thread::yield();
      }
      producer_ns = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - self_start;
    });
    producer.join();
    consumer.stop();
    consumer_ns += cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - process_start - producer_ns;
    records += consumer.stats().records;
    batches += consumer.stats().batches;
    benchmark::DoNotOptimize(sink);
  }
  state.counters["consumer_ns_per_record"] =
      static_cast<double>(consumer_ns) / static_cast<double>(records);
  state.counters["mean_batch"] = static_cast<double>(records) / static_cast<double>(batches);
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_DrainPaced)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
