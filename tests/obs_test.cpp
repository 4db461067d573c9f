// Observability layer: sharded instruments, histogram quantile accuracy
// against a sorted-vector oracle, exposition golden output, the trace ring
// under concurrent writers, and the admin HTTP endpoint end to end.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace protoobf {
namespace {

// Restores the global kill-switch no matter how a test exits.
struct EnabledGuard {
  ~EnabledGuard() { obs::set_enabled(true); }
};

TEST(Obs, CounterConcurrentUnderThreads) {
  obs::Counter counter;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kAdds = 1 << 20;
  // Every thread hammers the same logical counter; the padded slots must
  // make the total exact, not approximate.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::size_t i = 0; i < kAdds / kThreads; ++i) counter.add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), kAdds);

  // Weighted adds from a second wave of threads on top of that total.
  threads.clear();
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.add(3);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), kAdds + kThreads * 10000u * 3u);

  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Obs, GaugeOperations) {
  obs::Gauge gauge;
  gauge.add(5);
  gauge.sub(2);
  EXPECT_EQ(gauge.value(), 3);
  gauge.set(-7);
  EXPECT_EQ(gauge.value(), -7);
  gauge.set_max(10);
  EXPECT_EQ(gauge.value(), 10);
  gauge.set_max(4);  // lower than current: no change
  EXPECT_EQ(gauge.value(), 10);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Obs, HistogramBucketGeometry) {
  const std::uint64_t probes[] = {0,   1,    7,        8,
                                  9,   255,  1000000,  std::uint64_t{1} << 40,
                                  ~std::uint64_t{0} - 1};
  for (std::uint64_t v : probes) {
    const std::size_t idx = obs::Histogram::bucket_index(v);
    ASSERT_LT(idx, obs::Histogram::kBuckets) << v;
    const std::uint64_t floor = obs::Histogram::bucket_floor(idx);
    const std::uint64_t width = obs::Histogram::bucket_width(idx);
    EXPECT_LE(floor, v) << v;
    if (width < ~std::uint64_t{0} - floor) {
      EXPECT_LT(v, floor + width) << v;
    }
    if (v >= obs::Histogram::kSubBuckets) {
      // Log-linear promise: relative bucket width bounded by 1/kSubBuckets.
      EXPECT_LE(static_cast<double>(width) / static_cast<double>(floor),
                1.0 / obs::Histogram::kSubBuckets + 1e-9)
          << v;
    }
  }
}

TEST(Obs, HistogramSmallValuesExact) {
  obs::Histogram hist;
  for (std::uint64_t v = 0; v < 16; ++v) hist.record(v);
  const obs::Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 16u);
  EXPECT_EQ(snap.sum, 120u);
  EXPECT_EQ(snap.max, 15u);
  // Values below kSubBuckets*2 land in unit-wide buckets: quantiles are
  // exact nearest-rank values, not estimates.
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 7.0);   // rank ceil(8) -> value 7
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 15.0);  // the max itself
  EXPECT_DOUBLE_EQ(snap.p99, 15.0);            // rank ceil(15.84)=16 -> 15
}

TEST(Obs, HistogramQuantilesMatchSortedVectorOracle) {
  obs::Histogram hist;
  std::vector<std::uint64_t> oracle;
  Rng rng(20180625);
  constexpr std::size_t kSamples = 20000;
  oracle.reserve(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    // Mixed magnitudes with a heavy tail, like real latency distributions.
    std::uint64_t v = 1 + rng.below(1000000);
    if (i % 97 == 0) v *= 1000;  // tail out to ~1e9
    hist.record(v);
    oracle.push_back(v);
  }
  std::sort(oracle.begin(), oracle.end());

  std::uint64_t sum = 0;
  for (std::uint64_t v : oracle) sum += v;
  const obs::Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, kSamples);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.max, oracle.back());

  for (double q : {0.50, 0.90, 0.95, 0.99, 0.999}) {
    const std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(kSamples)));
    const double exact = static_cast<double>(oracle[rank - 1]);
    const double est = hist.quantile(q);
    // Bucket-midpoint estimate: bounded relative error 1/kSubBuckets.
    EXPECT_NEAR(est, exact, exact / obs::Histogram::kSubBuckets + 1e-9)
        << "q=" << q;
  }
}

TEST(Obs, HistogramConcurrentRecords) {
  obs::Histogram hist;
  std::vector<std::thread> threads;
  constexpr std::uint64_t kPerThread = 50000;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&hist, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist.record(static_cast<std::uint64_t>(t) * 1000 + (i % 100));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hist.count(), 4 * kPerThread);
  EXPECT_EQ(hist.snapshot().max, 3099u);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
}

TEST(Obs, RegistryDeduplicatesBySeriesName) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("dup_total", "Help.");
  obs::Counter& b = reg.counter("dup_total", "Help.");
  EXPECT_EQ(&a, &b);
  obs::Counter& labeled = reg.counter("dup_total", "Help.", {{"shard", "0"}});
  EXPECT_NE(&a, &labeled);
  obs::Gauge& g1 = reg.gauge("depth", "Help.");
  obs::Gauge& g2 = reg.gauge("depth", "Help.");
  EXPECT_EQ(&g1, &g2);
  obs::Histogram& h1 = reg.histogram("lat_ns", "Help.");
  obs::Histogram& h2 = reg.histogram("lat_ns", "Help.");
  EXPECT_EQ(&h1, &h2);
}

TEST(Obs, PrometheusExpositionGolden) {
  obs::MetricsRegistry reg;
  // Registered out of name order on purpose: exposition sorts families.
  reg.counter("test_requests_total", "Requests.", {{"shard", "0"}}).add(5);
  reg.gauge("test_queue_depth", "Depth.").set(7);
  obs::Histogram& hist = reg.histogram("test_latency_ns", "Latency.");
  hist.record(1);
  hist.record(2);
  hist.record(3);

  const std::string expected =
      "# HELP test_latency_ns Latency.\n"
      "# TYPE test_latency_ns summary\n"
      "test_latency_ns{quantile=\"0.5\"} 2\n"
      "test_latency_ns{quantile=\"0.95\"} 3\n"
      "test_latency_ns{quantile=\"0.99\"} 3\n"
      "test_latency_ns_sum 6\n"
      "test_latency_ns_count 3\n"
      "test_latency_ns_max 3\n"
      "# HELP test_queue_depth Depth.\n"
      "# TYPE test_queue_depth gauge\n"
      "test_queue_depth 7\n"
      "# HELP test_requests_total Requests.\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total{shard=\"0\"} 5\n";
  EXPECT_EQ(reg.prometheus_text(), expected);
}

TEST(Obs, JsonSnapshotGolden) {
  obs::MetricsRegistry reg;
  reg.counter("test_requests_total", "Requests.", {{"shard", "0"}}).add(5);
  reg.gauge("test_queue_depth", "Depth.").set(7);
  obs::Histogram& hist = reg.histogram("test_latency_ns", "Latency.");
  hist.record(1);
  hist.record(2);
  hist.record(3);

  // Series names carry quotes; JSON keys escape them. Keys sort by series.
  const std::string expected =
      R"({"counters":{"test_requests_total{shard=\"0\"}":5},)"
      R"("gauges":{"test_queue_depth":7},)"
      R"("histograms":{"test_latency_ns":{"count":3,"sum":6,"max":3,)"
      R"("mean":2,"p50":2,"p95":3,"p99":3}}})"
      "\n";
  EXPECT_EQ(reg.json_snapshot(), expected);
}

TEST(Obs, ResetValuesKeepsRegistrations) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("r_total", "Help.");
  obs::Gauge& g = reg.gauge("r_depth", "Help.");
  obs::Histogram& h = reg.histogram("r_ns", "Help.");
  c.add(9);
  g.set(4);
  h.record(100);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  // Same addresses after reset: hot-path references stay valid.
  EXPECT_EQ(&c, &reg.counter("r_total", "Help."));
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("r_total 0\n"), std::string::npos);
}

TEST(Obs, KillSwitchStopsRecording) {
  EnabledGuard guard;
  obs::Counter counter;
  obs::Histogram hist;
  obs::set_enabled(false);
  EXPECT_FALSE(obs::enabled());
  counter.add(5);
  hist.record(42);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(hist.count(), 0u);
  obs::set_enabled(true);
  counter.add(5);
  hist.record(42);
  EXPECT_EQ(counter.value(), 5u);
  EXPECT_EQ(hist.count(), 1u);
}

TEST(Obs, TracerRecordsAndDumps) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  const std::uint64_t id = tracer.next_conn_id();
  EXPECT_LT(id, tracer.next_conn_id());  // ids are monotonic
  tracer.record(42, obs::TraceEvent::FrameIn, 512);
  tracer.record(42, obs::TraceEvent::Backpressure, 9000);
  tracer.record(43, obs::TraceEvent::Close, 1);
  const std::string dump = tracer.dump();
  EXPECT_NE(dump.find("conn=42"), std::string::npos);
  EXPECT_NE(dump.find("FrameIn"), std::string::npos);
  EXPECT_NE(dump.find("arg=512"), std::string::npos);
  EXPECT_NE(dump.find("Backpressure"), std::string::npos);
  EXPECT_NE(dump.find("Close"), std::string::npos);
  // max_events caps the render to the newest entries.
  const std::string capped = tracer.dump(1);
  EXPECT_EQ(std::count(capped.begin(), capped.end(), '\n'), 1);
  EXPECT_NE(capped.find("Close"), std::string::npos);
  tracer.clear();
  EXPECT_EQ(tracer.dump(), "");
}

TEST(Obs, TracerRingUnderConcurrentWriters) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  const std::uint64_t before = tracer.recorded();
  constexpr std::uint64_t kPerThread = 20000;  // well past kCapacity
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  // A reader racing the writers: torn slots must be dropped, not rendered.
  std::thread reader([&tracer, &stop] {
    while (!stop.load()) {
      (void)tracer.dump(64);
    }
  });
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        tracer.record(static_cast<std::uint64_t>(t), obs::TraceEvent::FrameIn,
                      i);
      }
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(tracer.recorded() - before, 4 * kPerThread);
  // The ring holds at most kCapacity survivors.
  const std::string dump = tracer.dump();
  EXPECT_LE(static_cast<std::size_t>(
                std::count(dump.begin(), dump.end(), '\n')),
            obs::Tracer::kCapacity);
  tracer.clear();
}

// Blocking loopback GET against the admin endpoint; returns the full
// response (headers + body), empty string on any failure.
std::string admin_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return "";
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(Obs, AdminServerServesMetricsOverHttp) {
  obs::MetricsRegistry reg;
  reg.counter("test_admin_total", "Admin test counter.").add(7);
  obs::AdminServer admin(obs::AdminServer::Config(), &reg);
  ASSERT_TRUE(admin.start().ok());
  ASSERT_NE(admin.port(), 0);

  const std::string metrics = admin_get(admin.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE test_admin_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("test_admin_total 7"), std::string::npos);

  const std::string json = admin_get(admin.port(), "/metrics.json");
  EXPECT_NE(json.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(json.find("\"test_admin_total\":7"), std::string::npos);
  const std::size_t body_at = json.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(json[body_at + 4], '{');

  const std::string health = admin_get(admin.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string missing = admin_get(admin.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);

  // Concurrent scrapes: one request per connection, close-after-response.
  std::vector<std::thread> scrapers;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 8; ++i) {
    scrapers.emplace_back([&admin, &ok_count] {
      const std::string r = admin_get(admin.port(), "/metrics");
      if (r.find("test_admin_total 7") != std::string::npos) {
        ok_count.fetch_add(1);
      }
    });
  }
  for (auto& th : scrapers) th.join();
  EXPECT_EQ(ok_count.load(), 8);

  admin.stop();
}

TEST(Obs, AdminServerRejectsBusyPort) {
  obs::MetricsRegistry reg;
  obs::AdminServer first(obs::AdminServer::Config(), &reg);
  ASSERT_TRUE(first.start().ok());
  obs::AdminServer::Config clash;
  clash.endpoint = {"127.0.0.1", first.port()};
  obs::AdminServer second(clash, &reg);
  EXPECT_FALSE(second.start().ok());
  first.stop();
}

}  // namespace
}  // namespace protoobf
