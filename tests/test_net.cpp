// Loopback battery for the net serving layer: protocol framing
// round-trips, the epoll server's pipelining/burst batching, chunked
// scan streaming, multi-key txn atomicity observed across connections,
// a concurrent-clients fuzz against std::map oracles, the overload
// battery (admission-control shedding in FIFO position, the Stats
// opcode, EMFILE recovery under a lowered RLIMIT_NOFILE), and the
// robustness cases — truncated/partial frames, oversized length
// prefixes, garbage opcodes, mid-request disconnects — all of which
// must error out one connection without crashing, leaking, or
// disturbing the others.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "leaplist/net/client.hpp"
#include "leaplist/net/protocol.hpp"
#include "leaplist/net/server.hpp"
#include "test_common.hpp"
#include "util/random.hpp"

namespace {

using namespace leap::net;

ServerOptions test_options() {
  ServerOptions opts;
  opts.port = 0;
  opts.workers = 2;
  opts.shards = 4;
  opts.key_hi = 1'000'000;
  return opts;
}

// --- framing / codec round-trips (no sockets) -------------------------

void test_request_round_trip() {
  std::vector<std::uint8_t> buf;
  append_get(buf, -5);
  append_put(buf, 42, -99);
  append_erase(buf, 7);
  append_scan(buf, 10, 20, 3);
  const std::vector<TxnOp> ops = {
      {Op::kGet, 1, 0}, {Op::kPut, 2, 22}, {Op::kErase, 3, 0}};
  append_txn(buf, ops);

  std::size_t at = 0;
  auto pull = [&]() {
    std::size_t len = 0;
    CHECK(split_frame(buf.data() + at, buf.size() - at, len) ==
          FrameState::kReady);
    auto req = parse_request(buf.data() + at + 4, len);
    at += 4 + len;
    CHECK(req.has_value());
    return *req;
  };
  const Request get = pull();
  CHECK(get.op == Op::kGet);
  CHECK_EQ(get.key, -5);
  const Request put = pull();
  CHECK(put.op == Op::kPut);
  CHECK_EQ(put.key, 42);
  CHECK_EQ(put.value, -99);
  const Request erase = pull();
  CHECK(erase.op == Op::kErase);
  CHECK_EQ(erase.key, 7);
  const Request scan = pull();
  CHECK(scan.op == Op::kScan);
  CHECK_EQ(scan.low, 10);
  CHECK_EQ(scan.high, 20);
  CHECK_EQ(scan.limit, 3u);
  const Request txn = pull();
  CHECK(txn.op == Op::kTxn);
  CHECK_EQ(txn.txn.size(), std::size_t{3});
  CHECK(txn.txn[1].op == Op::kPut);
  CHECK_EQ(txn.txn[1].value, 22);
  CHECK_EQ(at, buf.size());
}

void test_response_round_trip() {
  std::vector<std::uint8_t> buf;
  append_ok(buf, true);
  append_found(buf, -12345);
  append_miss(buf);
  const std::pair<std::int64_t, std::int64_t> chunk_pairs[] = {{1, 10},
                                                               {2, 20}};
  append_scan_pairs(buf, chunk_pairs, 2, false);
  append_scan_pairs(buf, nullptr, 0, true);
  const std::vector<TxnOp> ops = {{Op::kGet, 1, 0}, {Op::kPut, 2, 5}};
  const std::vector<TxnResult> results = {{1, 77}, {0, 0}};
  append_txn_done(buf, ops, results);
  append_error(buf, Err::kBadOpcode);

  std::size_t at = 0;
  auto pull = [&](const std::vector<TxnOp>* txn_ops) {
    std::size_t len = 0;
    CHECK(split_frame(buf.data() + at, buf.size() - at, len) ==
          FrameState::kReady);
    auto resp = parse_response(buf.data() + at + 4, len, txn_ops);
    at += 4 + len;
    CHECK(resp.has_value());
    return *resp;
  };
  const Response ok = pull(nullptr);
  CHECK(ok.status == Status::kOk);
  CHECK_EQ(ok.flag, 1);
  const Response found = pull(nullptr);
  CHECK(found.status == Status::kFound);
  CHECK_EQ(found.value, -12345);
  CHECK(pull(nullptr).status == Status::kMiss);
  const Response chunk = pull(nullptr);
  CHECK(chunk.status == Status::kScanChunk);
  CHECK_EQ(chunk.pairs.size(), std::size_t{2});
  CHECK_EQ(chunk.pairs[1].second, 20);
  const Response done = pull(nullptr);
  CHECK(done.status == Status::kScanDone);
  CHECK(done.pairs.empty());
  const Response txn = pull(&ops);
  CHECK(txn.status == Status::kTxnDone);
  CHECK_EQ(txn.results.size(), std::size_t{2});
  CHECK_EQ(txn.results[0].flag, 1);
  CHECK_EQ(txn.results[0].value, 77);
  CHECK_EQ(txn.results[1].flag, 0);
  const Response error = pull(nullptr);
  CHECK(error.status == Status::kError);
  CHECK_EQ(error.error, static_cast<std::uint8_t>(Err::kBadOpcode));
  CHECK_EQ(at, buf.size());
}

void test_parser_rejects_malformed() {
  // Truncated bodies: every strict prefix of a valid put payload fails.
  std::vector<std::uint8_t> frame;
  append_put(frame, 1, 2);
  const std::uint8_t* payload = frame.data() + 4;
  const std::size_t payload_len = frame.size() - 4;
  for (std::size_t n = 0; n < payload_len; ++n) {
    CHECK(!parse_request(payload, n).has_value());
  }
  CHECK(parse_request(payload, payload_len).has_value());
  // Trailing garbage fails too: a frame decodes exactly or not at all.
  std::vector<std::uint8_t> fat(payload, payload + payload_len);
  fat.push_back(0);
  CHECK(!parse_request(fat.data(), fat.size()).has_value());
  // Unknown opcode.
  const std::uint8_t garbage[] = {0x7f, 0, 0, 0, 0, 0, 0, 0, 0};
  CHECK(!parse_request(garbage, sizeof(garbage)).has_value());
  // Oversized and zero length prefixes poison the stream.
  std::vector<std::uint8_t> huge;
  put_u32(huge, kMaxFrameBytes + 1);
  std::size_t len = 0;
  CHECK(split_frame(huge.data(), huge.size(), len) == FrameState::kBad);
  std::vector<std::uint8_t> zero;
  put_u32(zero, 0);
  CHECK(split_frame(zero.data(), zero.size(), len) == FrameState::kBad);
  // A txn claiming more sub-ops than it carries.
  std::vector<std::uint8_t> short_txn;
  put_u8(short_txn, static_cast<std::uint8_t>(Op::kTxn));
  put_u16(short_txn, 5);
  put_u8(short_txn, static_cast<std::uint8_t>(Op::kGet));
  put_i64(short_txn, 1);
  CHECK(!parse_request(short_txn.data(), short_txn.size()).has_value());
  // A txn smuggling a non-point sub-op.
  std::vector<std::uint8_t> nested;
  put_u8(nested, static_cast<std::uint8_t>(Op::kTxn));
  put_u16(nested, 1);
  put_u8(nested, static_cast<std::uint8_t>(Op::kScan));
  put_i64(nested, 1);
  CHECK(!parse_request(nested.data(), nested.size()).has_value());
}

// --- golden bytes: the wire format spelled out ------------------------
// The round trips above decode what the same codec encoded, so a
// byte-order slip made on both sides would pass them. These pin the
// bytes: short frames as literal lists, long ones expanded low byte
// first by shifting, then decode the pinned bytes back.

using Bytes = std::vector<std::uint8_t>;

constexpr std::int64_t kMinKey = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMaxKey = std::numeric_limits<std::int64_t>::max();

/// Append `v` as `width` little-endian bytes.
void push_le(Bytes& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

Request parse_only_request(const Bytes& frame) {
  std::size_t len = 0;
  CHECK(split_frame(frame.data(), frame.size(), len) == FrameState::kReady);
  CHECK_EQ(4 + len, frame.size());
  const auto req = parse_request(frame.data() + 4, len);
  CHECK(req.has_value());
  return *req;
}

Response parse_only_response(const Bytes& frame,
                             const std::vector<TxnOp>* txn_ops = nullptr) {
  std::size_t len = 0;
  CHECK(split_frame(frame.data(), frame.size(), len) == FrameState::kReady);
  CHECK_EQ(4 + len, frame.size());
  const auto resp = parse_response(frame.data() + 4, len, txn_ops);
  CHECK(resp.has_value());
  return *resp;
}

void test_golden_requests() {
  Bytes buf;
  append_get(buf, -2);
  const Bytes get = {0x09, 0x00, 0x00, 0x00, 0x01,  //
                     0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  CHECK(buf == get);
  CHECK_EQ(parse_only_request(get).key, -2);

  buf.clear();
  append_put(buf, kMinKey, kMaxKey);
  const Bytes put = {0x11, 0x00, 0x00, 0x00, 0x02,                    //
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  //
                     0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f};
  CHECK(buf == put);
  const Request put_req = parse_only_request(put);
  CHECK(put_req.op == Op::kPut);
  CHECK_EQ(put_req.key, kMinKey);
  CHECK_EQ(put_req.value, kMaxKey);

  buf.clear();
  append_erase(buf, 0x0102030405060708LL);
  const Bytes erase = {0x09, 0x00, 0x00, 0x00, 0x03,  //
                       0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  CHECK(buf == erase);
  CHECK_EQ(parse_only_request(erase).key, 0x0102030405060708LL);

  buf.clear();
  append_scan(buf, -1, 0x1234, 0xa0b0c0d0u);
  const Bytes scan = {0x15, 0x00, 0x00, 0x00, 0x04,                    //
                      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
                      0x34, 0x12, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
                      0xd0, 0xc0, 0xb0, 0xa0};
  CHECK(buf == scan);
  const Request scan_req = parse_only_request(scan);
  CHECK_EQ(scan_req.low, -1);
  CHECK_EQ(scan_req.high, 0x1234);
  CHECK_EQ(scan_req.limit, 0xa0b0c0d0u);

  buf.clear();
  const std::vector<TxnOp> ops = {
      {Op::kGet, 1, 0}, {Op::kPut, -3, 0x0102}, {Op::kErase, kMaxKey, 0}};
  append_txn(buf, ops);
  const Bytes txn = {0x26, 0x00, 0x00, 0x00, 0x05, 0x03, 0x00,        //
                     0x01,                                            //
                     0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
                     0x02,                                            //
                     0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
                     0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
                     0x03,                                            //
                     0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f};
  CHECK(buf == txn);
  const Request txn_req = parse_only_request(txn);
  CHECK_EQ(txn_req.txn.size(), std::size_t{3});
  CHECK_EQ(txn_req.txn[1].key, -3);
  CHECK_EQ(txn_req.txn[1].value, 0x0102);
  CHECK_EQ(txn_req.txn[2].key, kMaxKey);

  // A 258-op Txn: the u16 count's high byte is non-zero.
  buf.clear();
  append_txn(buf, std::vector<TxnOp>(258, TxnOp{Op::kGet, 0, 0}));
  CHECK_EQ(buf.size(), std::size_t{4 + 3 + 258 * 9});
  CHECK_EQ(buf[4], 0x05);
  CHECK_EQ(buf[5], 0x02);
  CHECK_EQ(buf[6], 0x01);
  CHECK_EQ(parse_only_request(buf).txn.size(), std::size_t{258});

  buf.clear();
  append_stats_req(buf);
  CHECK(buf == Bytes({0x01, 0x00, 0x00, 0x00, 0x06}));
  CHECK(parse_only_request(buf).op == Op::kStats);
}

void test_golden_responses() {
  Bytes buf;
  append_ok(buf, true);
  CHECK(buf == Bytes({0x02, 0x00, 0x00, 0x00, 0x00, 0x01}));
  CHECK_EQ(parse_only_response(buf).flag, 1);

  buf.clear();
  append_found(buf, kMinKey);
  const Bytes found = {0x09, 0x00, 0x00, 0x00, 0x01,  //
                       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80};
  CHECK(buf == found);
  CHECK_EQ(parse_only_response(found).value, kMinKey);

  buf.clear();
  append_miss(buf);
  CHECK(buf == Bytes({0x01, 0x00, 0x00, 0x00, 0x02}));

  buf.clear();
  append_error(buf, Err::kOverloaded);
  CHECK(buf == Bytes({0x02, 0x00, 0x00, 0x00, 0x06, 0x04}));
  CHECK_EQ(parse_only_response(buf).error, 0x04);

  buf.clear();
  const std::vector<TxnOp> ops = {{Op::kGet, 1, 0},
                                  {Op::kPut, 2, 3},
                                  {Op::kGet, 4, 0},
                                  {Op::kErase, 5, 0}};
  const std::vector<TxnResult> results = {{1, -1}, {1, 0}, {0, 0}, {0, 0}};
  append_txn_done(buf, ops, results);
  const Bytes txn_done = {0x0f, 0x00, 0x00, 0x00, 0x05, 0x04, 0x00,  //
                          0x01,                                      //
                          0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
                          0xff, 0x01, 0x00, 0x00};
  CHECK(buf == txn_done);
  const Response txn = parse_only_response(txn_done, &ops);
  CHECK_EQ(txn.results.size(), std::size_t{4});
  CHECK_EQ(txn.results[0].value, -1);
  CHECK_EQ(txn.results[1].flag, 1);

  buf.clear();
  const std::pair<std::int64_t, std::int64_t> two[] = {
      {-1, kMaxKey}, {kMinKey, 0x0102030405060708LL}};
  append_scan_pairs(buf, two, 2, true);
  const Bytes scan_done = {0x25, 0x00, 0x00, 0x00, 0x04,              //
                           0x02, 0x00, 0x00, 0x00,                    //
                           0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
                           0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
                           0xff, 0x7f, 0x00, 0x00, 0x00, 0x00, 0x00,  //
                           0x00, 0x00, 0x80, 0x08, 0x07, 0x06, 0x05,  //
                           0x04, 0x03, 0x02, 0x01};
  CHECK(buf == scan_done);
  const Response done = parse_only_response(scan_done);
  CHECK(done.status == Status::kScanDone);
  CHECK_EQ(done.pairs.size(), std::size_t{2});
  CHECK_EQ(done.pairs[1].first, kMinKey);
  CHECK_EQ(done.pairs[1].second, 0x0102030405060708LL);

  buf.clear();
  append_scan_pairs(buf, nullptr, 0, true);
  CHECK(buf == Bytes({0x05, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00}));

  // A full chunk: 512 pairs crossing zero, INT64_MIN first and
  // INT64_MAX last.
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  for (std::size_t i = 0; i < kScanChunkPairs; ++i) {
    const std::int64_t key =
        (static_cast<std::int64_t>(i) - 256) * 0x0102030405LL;
    pairs.emplace_back(key, ~key);
  }
  pairs.front().first = kMinKey;
  pairs.back().second = kMaxKey;
  buf.clear();
  append_scan_pairs(buf, pairs.data(), pairs.size(), false);
  Bytes chunk = {0x05, 0x20, 0x00, 0x00, 0x03, 0x00, 0x02, 0x00, 0x00};
  for (const auto& [key, value] : pairs) {
    push_le(chunk, static_cast<std::uint64_t>(key), 8);
    push_le(chunk, static_cast<std::uint64_t>(value), 8);
  }
  CHECK_EQ(buf.size(), std::size_t{4 + 1 + 4 + 512 * 16});
  CHECK(buf == chunk);
  const Response full = parse_only_response(chunk);
  CHECK(full.status == Status::kScanChunk);
  CHECK(full.pairs == pairs);

  // Stats: every word distinct and byte-asymmetric, in field order.
  StatsSnapshot s;
  std::uint64_t word = 0;
  const auto next = [&word] {
    ++word;
    return (word << 56) | (0xa0 + word);
  };
  s.ops = next();
  s.accepted = next();
  s.errored = next();
  s.shed = next();
  s.stm_retries = next();
  s.batches = next();
  s.batch_ops = next();
  s.queued_now = next();
  s.queue_hwm = next();
  s.accept_pauses = next();
  s.emfile_sheds = next();
  s.wal_appends = next();
  s.wal_fsyncs = next();
  s.wal_group_ops = next();
  s.store_flushes = next();
  s.store_runs = next();
  s.bloom_negatives = next();
  s.cold_hits = next();
  s.recovered_ops = next();
  s.store_fail_stop = next();
  s.corrupt_blocks = next();
  s.checkpoint_retries = next();
  for (std::size_t i = 0; i < kBatchHistBuckets; ++i) s.batch_hist[i] = next();
  CHECK_EQ(word, std::uint64_t{kStatsWords});
  buf.clear();
  append_stats(buf, s);
  Bytes stats = {0xf2, 0x00, 0x00, 0x00, 0x07, 0x1e};
  for (std::uint64_t w = 1; w <= kStatsWords; ++w) {
    push_le(stats, (w << 56) | (0xa0 + w), 8);
  }
  CHECK(buf == stats);
  const Response back = parse_only_response(stats);
  CHECK_EQ(back.stats.ops, s.ops);
  CHECK_EQ(back.stats.checkpoint_retries, s.checkpoint_retries);
  CHECK_EQ(back.stats.batch_hist[kBatchHistBuckets - 1],
           s.batch_hist[kBatchHistBuckets - 1]);
}

// --- loopback: basic semantics ---------------------------------------

void test_point_ops(Server& server) {
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  CHECK(!client.get(111).has_value());
  CHECK(client.put(111, 1000));
  CHECK(!client.put(111, 2000));  // overwrite reports "not inserted"
  const auto hit = client.get(111);
  CHECK(hit.has_value());
  CHECK_EQ(*hit, 2000);
  CHECK(client.erase(111));
  CHECK(!client.erase(111));
  CHECK(!client.get(111).has_value());
  CHECK(!client.failed());
}

void test_pipelined_burst(Server& server) {
  // One syscall burst of mixed point ops. The server fuses the burst
  // into single-txn batches, so responses must come back in order AND
  // read-your-writes must hold within the burst — both checkable
  // against a sequential std::map replay.
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  std::map<std::int64_t, std::int64_t> oracle;
  leap::util::Xoshiro256 rng(123);
  struct Sent {
    Op op;
    std::int64_t key;
    bool flag;
    std::int64_t value;
  };
  std::vector<Sent> sent;
  // 64 keys strided over the whole routing window, so the server's Get
  // runs (one interleaved lookup each) cross shards and nodes.
  const auto draw_key = [&] {
    return 5000 + 15'607 * static_cast<std::int64_t>(rng.next_below(64));
  };
  std::vector<bool> shard_hit(server.map().shard_count(), false);
  for (std::int64_t j = 0; j < 64; ++j) {
    shard_hit[server.map().shard_of(5000 + 15'607 * j)] = true;
  }
  CHECK(std::find(shard_hit.begin(), shard_hit.end(), false) ==
        shard_hit.end());
  while (sent.size() < 300) {
    const int dial = static_cast<int>(rng.next_below(3));
    if (dial == 0) {
      const std::int64_t key = draw_key();
      const std::int64_t value = static_cast<std::int64_t>(rng.next());
      const bool inserted = oracle.insert_or_assign(key, value).second;
      client.queue_put(key, value);
      sent.push_back({Op::kPut, key, inserted, 0});
    } else if (dial == 1) {
      const std::int64_t key = draw_key();
      const bool erased = oracle.erase(key) > 0;
      client.queue_erase(key);
      sent.push_back({Op::kErase, key, erased, 0});
    } else {
      for (std::uint64_t run = 1 + rng.next_below(24); run > 0; --run) {
        const std::int64_t key = draw_key();
        const auto it = oracle.find(key);
        const bool found = it != oracle.end();
        client.queue_get(key);
        sent.push_back({Op::kGet, key, found, found ? it->second : 0});
      }
    }
  }
  CHECK(client.flush());
  for (const Sent& s : sent) {
    const auto resp = client.read_response();
    CHECK(resp.has_value());
    if (s.op == Op::kGet) {
      if (s.flag) {
        CHECK(resp->status == Status::kFound);
        CHECK_EQ(resp->value, s.value);
      } else {
        CHECK(resp->status == Status::kMiss);
      }
    } else {
      CHECK(resp->status == Status::kOk);
      CHECK_EQ(resp->flag, s.flag ? 1 : 0);
    }
  }
  // Clean the stripe so later tests see a predictable map.
  for (const auto& entry : oracle) CHECK(client.erase(entry.first));
  CHECK(!client.failed());
}

void test_scan_streams_chunks(Server& server) {
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  const std::int64_t base = 200'000;
  const std::int64_t count = 2000;  // > kScanChunkPairs → several chunks
  for (std::int64_t i = 0; i < count; ++i) client.queue_put(base + 2 * i, i);
  CHECK(client.flush());
  for (std::int64_t i = 0; i < count; ++i) {
    const auto resp = client.read_response();
    CHECK(resp.has_value());
    CHECK(resp->status == Status::kOk);
  }
  // Unlimited scan: every pair, in order, across multiple chunk frames.
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  CHECK_EQ(client.scan(base, base + 2 * count, 0, pairs),
           static_cast<std::ptrdiff_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    CHECK_EQ(pairs[static_cast<std::size_t>(i)].first, base + 2 * i);
    CHECK_EQ(pairs[static_cast<std::size_t>(i)].second, i);
  }
  // A bounded scan honors the limit exactly (limit > one chunk, so the
  // remaining-count must survive across chunk transactions).
  pairs.clear();
  CHECK_EQ(client.scan(base, base + 2 * count, 700, pairs),
           static_cast<std::ptrdiff_t>(700));
  CHECK_EQ(pairs[699].first, base + 2 * 699);
  // An inverted range answers an empty ScanDone, not an error.
  pairs.clear();
  CHECK_EQ(client.scan(base + 100, base, 0, pairs),
           static_cast<std::ptrdiff_t>(0));
  // The range is inclusive on both ends: a singleton scan hits.
  pairs.clear();
  CHECK_EQ(client.scan(base + 2, base + 2, 0, pairs),
           static_cast<std::ptrdiff_t>(1));
  CHECK_EQ(pairs[0].first, base + 2);
  for (std::int64_t i = 0; i < count; ++i) client.queue_erase(base + 2 * i);
  CHECK(client.flush());
  for (std::int64_t i = 0; i < count; ++i) {
    CHECK(client.read_response().has_value());
  }
  CHECK(!client.failed());
}

// --- loopback: concurrency -------------------------------------------

void test_concurrent_clients_vs_oracle(Server& server) {
  // Each thread owns a disjoint key stripe on its own connection, so
  // every response is checkable against a thread-local std::map oracle
  // even under full concurrency; a final scan cross-checks the union.
  const auto window =
      leap::test::stress_duration(std::chrono::milliseconds(300));
  constexpr int kThreads = 4;
  constexpr std::int64_t kStripe = 4096;
  std::vector<std::map<std::int64_t, std::int64_t>> oracles(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      if (!client.connect("127.0.0.1", server.port())) {
        failed.store(true);
        return;
      }
      std::map<std::int64_t, std::int64_t>& oracle = oracles[t];
      // Stripes sit far apart so several map shards see traffic.
      const std::int64_t base = 300'000 + t * 150'000;
      leap::util::Xoshiro256 rng(0xace0 + t);
      const auto deadline = std::chrono::steady_clock::now() + window;
      while (std::chrono::steady_clock::now() < deadline) {
        // A pipelined window of 32 ops, then verify all 32 responses.
        struct Sent {
          Op op;
          bool flag;
          std::int64_t value;
        };
        std::vector<Sent> sent;
        for (int i = 0; i < 32; ++i) {
          const std::int64_t key =
              base + static_cast<std::int64_t>(rng.next_below(kStripe));
          const int dial = static_cast<int>(rng.next_below(4));
          if (dial == 0) {
            const auto it = oracle.find(key);
            const bool found = it != oracle.end();
            client.queue_get(key);
            sent.push_back({Op::kGet, found, found ? it->second : 0});
          } else if (dial == 3) {
            const bool erased = oracle.erase(key) > 0;
            client.queue_erase(key);
            sent.push_back({Op::kErase, erased, 0});
          } else {
            const std::int64_t value = static_cast<std::int64_t>(rng.next());
            const bool inserted = oracle.insert_or_assign(key, value).second;
            client.queue_put(key, value);
            sent.push_back({Op::kPut, inserted, 0});
          }
        }
        if (!client.flush()) {
          failed.store(true);
          return;
        }
        for (const Sent& s : sent) {
          const auto resp = client.read_response();
          bool ok = resp.has_value();
          if (ok && s.op == Op::kGet) {
            ok = s.flag ? (resp->status == Status::kFound &&
                           resp->value == s.value)
                        : resp->status == Status::kMiss;
          } else if (ok) {
            ok = resp->status == Status::kOk &&
                 resp->flag == (s.flag ? 1 : 0);
          }
          if (!ok) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  CHECK(!failed.load());
  // Cross-check the union of oracles through a fresh connection.
  std::map<std::int64_t, std::int64_t> want;
  for (const auto& oracle : oracles) {
    want.insert(oracle.begin(), oracle.end());
  }
  Client checker;
  CHECK(checker.connect("127.0.0.1", server.port()));
  std::vector<std::pair<std::int64_t, std::int64_t>> got;
  CHECK(checker.scan(300'000, 300'000 + kThreads * 150'000, 0, got) >= 0);
  CHECK_EQ(got.size(), want.size());
  auto it = want.begin();
  for (const auto& [key, value] : got) {
    CHECK_EQ(key, it->first);
    CHECK_EQ(value, it->second);
    ++it;
  }
  for (const auto& entry : want) CHECK(checker.erase(entry.first));
}

void test_txn_atomicity_across_connections(Server& server) {
  // A token bounces between two keys in different map shards via the
  // Txn opcode; reader connections snapshot both keys in one txn and
  // must see the token in EXACTLY one place at every instant.
  const std::int64_t key_a = 1'000;
  const std::int64_t key_b = 900'000;  // other end of the key window
  CHECK(server.map().shard_of(key_a) != server.map().shard_of(key_b));
  {
    Client setup;
    CHECK(setup.connect("127.0.0.1", server.port()));
    CHECK(setup.put(key_a, 7777));
  }
  const auto window =
      leap::test::stress_duration(std::chrono::milliseconds(300));
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> moves{0};
  std::thread mover([&] {
    Client client;
    if (!client.connect("127.0.0.1", server.port())) {
      failed.store(true);
      return;
    }
    std::int64_t from = key_a;
    std::int64_t to = key_b;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<TxnOp> ops = {
          {Op::kErase, from, 0},
          {Op::kPut, to, 7777},
      };
      const auto results = client.txn(ops);
      if (!results || !(*results)[0].flag || !(*results)[1].flag) {
        failed.store(true);
        return;
      }
      moves.fetch_add(1, std::memory_order_relaxed);
      std::swap(from, to);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      Client client;
      if (!client.connect("127.0.0.1", server.port())) {
        failed.store(true);
        return;
      }
      const std::vector<TxnOp> probe = {
          {Op::kGet, key_a, 0},
          {Op::kGet, key_b, 0},
      };
      while (!stop.load(std::memory_order_relaxed)) {
        const auto results = client.txn(probe);
        if (!results) {
          failed.store(true);
          return;
        }
        const int present =
            ((*results)[0].flag ? 1 : 0) + ((*results)[1].flag ? 1 : 0);
        const std::int64_t value =
            (*results)[0].flag ? (*results)[0].value : (*results)[1].value;
        if (present != 1 || value != 7777) {
          failed.store(true);  // both, neither, or torn: not atomic
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(window);
  stop.store(true);
  mover.join();
  for (auto& reader : readers) reader.join();
  CHECK(!failed.load());
  CHECK(moves.load() > 0);
  Client cleanup;
  CHECK(cleanup.connect("127.0.0.1", server.port()));
  cleanup.erase(key_a);
  cleanup.erase(key_b);
}

// --- loopback: robustness --------------------------------------------

void expect_connection_dies(Client& client) {
  // The server answers an Error frame when the stream is still framed,
  // then closes; either way the reads must terminate — no hang, no
  // crash, and nothing after an Error.
  for (int hops = 0; hops < 8; ++hops) {
    const auto resp = client.read_response();
    if (!resp) return;  // closed
    if (resp->status == Status::kError) {
      CHECK(!client.read_response().has_value());
      return;
    }
  }
  CHECK(false);  // the connection never died
}

void test_robustness(Server& server) {
  const ServerStats before = server.stats();
  {
    // Oversized length prefix — nothing that big may even allocate.
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> evil;
    put_u32(evil, kMaxFrameBytes + 7);
    evil.push_back(1);
    client.queue_raw(evil);
    CHECK(client.flush());
    expect_connection_dies(client);
  }
  {
    // Zero-length frame.
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> evil;
    put_u32(evil, 0);
    client.queue_raw(evil);
    CHECK(client.flush());
    expect_connection_dies(client);
  }
  {
    // Garbage opcode after a sound request: the sound one is answered,
    // then the stream errors out.
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    client.queue_put(31337, 1);
    std::vector<std::uint8_t> evil;
    put_u32(evil, 1);
    evil.push_back(0xEE);
    client.queue_raw(evil);
    CHECK(client.flush());
    const auto first = client.read_response();
    CHECK(first.has_value());
    CHECK(first->status == Status::kOk);
    expect_connection_dies(client);
  }
  {
    // Malformed body (a get with a short key).
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> evil;
    put_u32(evil, 3);
    evil.push_back(static_cast<std::uint8_t>(Op::kGet));
    evil.push_back(1);
    evil.push_back(2);
    client.queue_raw(evil);
    CHECK(client.flush());
    expect_connection_dies(client);
  }
  {
    // Mid-request disconnect: a frame promising 12 bytes delivers 3,
    // then the peer vanishes. The server just drops the half frame.
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> partial;
    put_u32(partial, 12);
    partial.push_back(static_cast<std::uint8_t>(Op::kGet));
    partial.push_back(0);
    partial.push_back(0);
    client.queue_raw(partial);
    CHECK(client.flush());
    client.close();
  }
  {
    // Disconnect mid-scan: request a big stream, read one frame, bail
    // while the server still has chunks queued for this connection.
    Client seeder;
    CHECK(seeder.connect("127.0.0.1", server.port()));
    for (int i = 0; i < 1500; ++i) seeder.queue_put(600'000 + i, i);
    CHECK(seeder.flush());
    for (int i = 0; i < 1500; ++i) {
      CHECK(seeder.read_response().has_value());
    }
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    client.queue_scan(600'000, 602'000, 0);
    CHECK(client.flush());
    CHECK(client.read_response().has_value());  // first chunk only
    client.close();
    for (int i = 0; i < 1500; ++i) seeder.queue_erase(600'000 + i);
    CHECK(seeder.flush());
    for (int i = 0; i < 1500; ++i) {
      CHECK(seeder.read_response().has_value());
    }
  }
  {
    // A request split across many tiny writes still parses — the
    // server must buffer partial frames indefinitely, not error them.
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> frame;
    append_put(frame, 777, 888);
    for (const std::uint8_t byte : frame) {
      client.queue_raw({byte});
      CHECK(client.flush());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto resp = client.read_response();
    CHECK(resp.has_value());
    CHECK(resp->status == Status::kOk);
    CHECK(client.erase(777));
  }
  // The abuse above errored out connections but never the server:
  // fresh connections still serve, and the error counter moved.
  Client survivor;
  CHECK(survivor.connect("127.0.0.1", server.port()));
  CHECK(survivor.put(1, 2));
  CHECK(survivor.erase(1));
  CHECK(server.stats().errored >= before.errored + 4);
}

// --- loopback: overload / observability -------------------------------

void test_stats_codec_round_trip() {
  StatsSnapshot in;
  in.ops = 1;
  in.accepted = 2;
  in.errored = 3;
  in.shed = 4;
  in.stm_retries = 5;
  in.batches = 6;
  in.batch_ops = 7;
  in.queued_now = 8;
  in.queue_hwm = 9;
  in.accept_pauses = 10;
  in.emfile_sheds = 11;
  in.wal_appends = 12;
  in.wal_fsyncs = 13;
  in.wal_group_ops = 14;
  in.store_flushes = 15;
  in.store_runs = 16;
  in.bloom_negatives = 17;
  in.cold_hits = 18;
  in.recovered_ops = 19;
  in.store_fail_stop = 20;
  in.corrupt_blocks = 21;
  in.checkpoint_retries = 22;
  for (std::size_t i = 0; i < kBatchHistBuckets; ++i) {
    in.batch_hist[i] = 100 + i;
  }
  std::vector<std::uint8_t> buf;
  append_stats(buf, in);
  std::size_t len = 0;
  CHECK(split_frame(buf.data(), buf.size(), len) == FrameState::kReady);
  const auto resp = parse_response(buf.data() + 4, len, nullptr);
  CHECK(resp.has_value());
  CHECK(resp->status == Status::kStats);
  const StatsSnapshot& out = resp->stats;
  CHECK_EQ(out.ops, in.ops);
  CHECK_EQ(out.accepted, in.accepted);
  CHECK_EQ(out.errored, in.errored);
  CHECK_EQ(out.shed, in.shed);
  CHECK_EQ(out.stm_retries, in.stm_retries);
  CHECK_EQ(out.batches, in.batches);
  CHECK_EQ(out.batch_ops, in.batch_ops);
  CHECK_EQ(out.queued_now, in.queued_now);
  CHECK_EQ(out.queue_hwm, in.queue_hwm);
  CHECK_EQ(out.accept_pauses, in.accept_pauses);
  CHECK_EQ(out.emfile_sheds, in.emfile_sheds);
  CHECK_EQ(out.wal_appends, in.wal_appends);
  CHECK_EQ(out.wal_fsyncs, in.wal_fsyncs);
  CHECK_EQ(out.wal_group_ops, in.wal_group_ops);
  CHECK_EQ(out.store_flushes, in.store_flushes);
  CHECK_EQ(out.store_runs, in.store_runs);
  CHECK_EQ(out.bloom_negatives, in.bloom_negatives);
  CHECK_EQ(out.cold_hits, in.cold_hits);
  CHECK_EQ(out.recovered_ops, in.recovered_ops);
  CHECK_EQ(out.store_fail_stop, in.store_fail_stop);
  CHECK_EQ(out.corrupt_blocks, in.corrupt_blocks);
  CHECK_EQ(out.checkpoint_retries, in.checkpoint_retries);
  for (std::size_t i = 0; i < kBatchHistBuckets; ++i) {
    CHECK_EQ(out.batch_hist[i], in.batch_hist[i]);
  }
  // A Stats response whose word count disagrees with kStatsWords fails
  // to parse (forward-compat is explicit, not silent).
  buf[5] = static_cast<std::uint8_t>(kStatsWords - 1);
  CHECK(!parse_response(buf.data() + 4, len, nullptr).has_value());
  // Bucketing: floor(log2), clamped to the last bucket.
  CHECK_EQ(batch_hist_bucket(1), std::size_t{0});
  CHECK_EQ(batch_hist_bucket(2), std::size_t{1});
  CHECK_EQ(batch_hist_bucket(3), std::size_t{1});
  CHECK_EQ(batch_hist_bucket(128), std::size_t{7});
  CHECK_EQ(batch_hist_bucket(1 << 12), kBatchHistBuckets - 1);
}

void test_stats_opcode(Server& server) {
  // Delta-based: the shared server has served other tests already, so
  // only growth is asserted, against traffic this test generates.
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  const auto before = client.stats();
  CHECK(before.has_value());
  constexpr int kOps = 64;
  for (int i = 0; i < kOps; ++i) client.queue_put(700'000 + i, i);
  CHECK(client.flush());
  for (int i = 0; i < kOps; ++i) {
    const auto resp = client.read_response();
    CHECK(resp.has_value());
    CHECK(resp->status == Status::kOk);
  }
  Client extra;  // accepted between the snapshots
  CHECK(extra.connect("127.0.0.1", server.port()));
  CHECK(extra.put(700'100, 1));
  CHECK(extra.erase(700'100));
  const auto after = client.stats();
  CHECK(after.has_value());
  CHECK(after->ops >= before->ops + kOps);
  CHECK(after->accepted >= before->accepted + 1);
  // The pipelined window commits as batches; both batch counters and
  // the histogram must have moved.
  CHECK(after->batches > before->batches);
  CHECK(after->batch_ops >= before->batch_ops + kOps);
  std::uint64_t hist_before = 0;
  std::uint64_t hist_after = 0;
  for (std::size_t i = 0; i < kBatchHistBuckets; ++i) {
    hist_before += before->batch_hist[i];
    hist_after += after->batch_hist[i];
  }
  CHECK(hist_after > hist_before);
  // Stats itself counts as an op but never as shed.
  CHECK_EQ(after->shed, before->shed);
  for (int i = 0; i < kOps; ++i) client.queue_erase(700'000 + i);
  CHECK(client.flush());
  for (int i = 0; i < kOps; ++i) {
    CHECK(client.read_response().has_value());
  }
  CHECK(!client.failed());
}

void test_shed_battery() {
  // A dedicated single-worker server with a tiny admission cap: a
  // large single-flush burst must shed most of the window as
  // kOverloaded IN FIFO POSITION while every admitted op executes
  // exactly once — both checkable by replaying the op sequence
  // against a std::map oracle that applies only the non-shed ops.
  ServerOptions opts = test_options();
  opts.workers = 1;
  opts.max_queue = 4;
  Server server(opts);
  CHECK(server.start());
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));

  constexpr int kBurst = 2048;
  leap::util::Xoshiro256 rng(0x0e11);
  struct Sent {
    Op op;
    std::int64_t key;
    std::int64_t value;
  };
  std::vector<Sent> sent;
  sent.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    const std::int64_t key =
        10'000 + static_cast<std::int64_t>(rng.next_below(64));
    const int dial = static_cast<int>(rng.next_below(3));
    if (dial == 0) {
      const std::int64_t value = static_cast<std::int64_t>(rng.next());
      client.queue_put(key, value);
      sent.push_back({Op::kPut, key, value});
    } else if (dial == 1) {
      client.queue_erase(key);
      sent.push_back({Op::kErase, key, 0});
    } else {
      client.queue_get(key);
      sent.push_back({Op::kGet, key, 0});
    }
  }
  CHECK(client.flush());

  // Replay: response i answers request i. Shed responses leave the
  // oracle untouched; everything else must match the oracle exactly —
  // which also proves admitted ops ran exactly once and in order.
  std::map<std::int64_t, std::int64_t> oracle;
  std::uint64_t shed_seen = 0;
  for (const Sent& s : sent) {
    const auto resp = client.read_response();
    CHECK(resp.has_value());
    if (resp->status == Status::kError) {
      CHECK_EQ(resp->error, static_cast<std::uint8_t>(Err::kOverloaded));
      ++shed_seen;
      continue;
    }
    if (s.op == Op::kPut) {
      const bool inserted = oracle.insert_or_assign(s.key, s.value).second;
      CHECK(resp->status == Status::kOk);
      CHECK_EQ(resp->flag, inserted ? 1 : 0);
    } else if (s.op == Op::kErase) {
      const bool erased = oracle.erase(s.key) > 0;
      CHECK(resp->status == Status::kOk);
      CHECK_EQ(resp->flag, erased ? 1 : 0);
    } else {
      const auto it = oracle.find(s.key);
      if (it != oracle.end()) {
        CHECK(resp->status == Status::kFound);
        CHECK_EQ(resp->value, it->second);
      } else {
        CHECK(resp->status == Status::kMiss);
      }
    }
  }
  // A 2048-op burst against a 4-deep queue must have shed; the
  // connection SURVIVED every one of them.
  CHECK(shed_seen > 0);
  CHECK(!client.failed());
  CHECK(client.put(999'999, 1));
  const auto hit = client.get(999'999);
  CHECK(hit.has_value());
  CHECK_EQ(*hit, 1);

  // The server's own count agrees with what crossed the wire (a Stats
  // request is exempt from admission, so it works even now).
  const auto wire = client.stats();
  CHECK(wire.has_value());
  CHECK_EQ(wire->shed, shed_seen);
  CHECK(wire->queue_hwm <= opts.max_queue);
  CHECK(wire->queue_hwm > 0);

  // Counters survive shutdown (stop() folds per-worker counters).
  server.stop();
  CHECK_EQ(server.stats().shed, shed_seen);
}

void test_emfile_recovery() {
  // Regression for the accept_all busy-spin: under fd exhaustion the
  // server must shed the unacceptable connection (peer sees EOF, not
  // a hang), pause its listen interest instead of spinning, keep
  // serving existing connections, and resume accepting once fds are
  // back. RLIMIT_NOFILE is lowered for the duration.
  ServerOptions opts = test_options();
  opts.workers = 1;
  opts.accept_backoff_ms = 30;
  Server server(opts);
  CHECK(server.start());
  Client veteran;
  CHECK(veteran.connect("127.0.0.1", server.port()));
  CHECK(veteran.put(42, 420));

  rlimit saved{};
  CHECK(::getrlimit(RLIMIT_NOFILE, &saved) == 0);
  const int probe = ::dup(0);  // lowest free fd number right now
  CHECK(probe >= 0);
  ::close(probe);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(probe + 10);
  CHECK(::setrlimit(RLIMIT_NOFILE, &tight) == 0);

  // Exhaust every remaining slot, then free exactly one for the
  // incoming client socket — so the server's accept4 is guaranteed to
  // hit EMFILE (its emergency reserve fd predates the exhaustion).
  std::vector<int> hogs;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (fd < 0) break;
    hogs.push_back(fd);
  }
  CHECK(!hogs.empty());
  ::close(hogs.back());
  hogs.pop_back();

  Client doomed;
  CHECK(doomed.connect("127.0.0.1", server.port()));  // SYN backlog
  // The server sheds via its reserve: accept-then-close, so this read
  // terminates with EOF instead of hanging un-accepted forever.
  CHECK(!doomed.get(1).has_value());
  CHECK(doomed.failed());

  // The shed and the accept pause are both visible, and the already-
  // accepted connection still serves while paused.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  for (;;) {
    const ServerStats s = server.stats();
    if (s.emfile_sheds >= 1 && s.accept_pauses >= 1) break;
    CHECK(std::chrono::steady_clock::now() < deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto hit = veteran.get(42);
  CHECK(hit.has_value());
  CHECK_EQ(*hit, 420);

  // Release the pressure; accept must resume within the backoff.
  for (const int fd : hogs) ::close(fd);
  hogs.clear();
  CHECK(::setrlimit(RLIMIT_NOFILE, &saved) == 0);
  bool recovered = false;
  for (int attempt = 0; attempt < 100; ++attempt) {
    Client fresh;
    if (fresh.connect("127.0.0.1", server.port()) && fresh.put(7, 70)) {
      CHECK(fresh.erase(7));
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  CHECK(recovered);
  CHECK(veteran.erase(42));
  server.stop();
}

void test_stop_reports_stuck_worker() {
  // A worker blocked inside a request must not make shutdown wait
  // forever: stop_within names it once its bound passes. Holding the
  // STM's commit gate exclusively blocks the worker in its Put's
  // commit until the gate opens.
  Server server(test_options());
  CHECK(server.start());
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  leap::stm::detail::commit_gate_lock_exclusive();
  client.queue_put(7, 70);
  CHECK(client.flush());
  // The batch counter moves when the worker begins the burst; from
  // then on it cannot return before the commit.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().batches == 0) {
    CHECK(std::chrono::steady_clock::now() < deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string stuck;
  CHECK(!server.stop_within(std::chrono::milliseconds(100), &stuck));
  CHECK(stuck.find("worker") != std::string::npos);
  CHECK(stuck.find("tid") != std::string::npos);
  CHECK(stuck.find(',') == std::string::npos);  // only the blocked one
  leap::stm::detail::commit_gate_unlock_exclusive();
  stuck.clear();
  CHECK(server.stop_within(std::chrono::seconds(30), &stuck));
  CHECK(stuck.empty());
  CHECK(!server.running());
}

void test_stop_with_live_connections() {
  Server server(test_options());
  CHECK(server.start());
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  CHECK(client.put(5, 50));
  server.stop();
  // The peer observes the close; the client object just fails cleanly.
  CHECK(!client.get(5).has_value());
  CHECK(client.failed());
}

}  // namespace

int main() {
  test_request_round_trip();
  test_response_round_trip();
  test_parser_rejects_malformed();
  test_golden_requests();
  test_golden_responses();
  test_stats_codec_round_trip();

  {
    Server server(test_options());
    std::string error;
    if (!server.start(&error)) {
      leap::test::fail(__FILE__, __LINE__, "server start: " + error);
    }
    test_point_ops(server);
    test_pipelined_burst(server);
    test_scan_streams_chunks(server);
    test_concurrent_clients_vs_oracle(server);
    test_txn_atomicity_across_connections(server);
    test_robustness(server);
    test_stats_opcode(server);
    server.stop();
    CHECK(server.stats().ops > 0);
  }
  test_shed_battery();
  test_emfile_recovery();
  test_stop_with_live_connections();
  test_stop_reports_stuck_worker();

  return leap::test::finish("test_net");
}
