// The Unix-socket transport end to end: real daemon stack, real client,
// newline-delimited JSON over a real socket. Covers id-matched out-of-order
// responses, wire-level typed rejects (malformed line, oversized line with
// connection resync), multiple concurrent connections, and graceful drain
// visible as clean EOF from the client side.
#include "serve/socket_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "../testing/temp_dir.h"
#include "data/datasets.h"
#include "graph/ground_set.h"
#include "serve/client.h"
#include "serve/server.h"

namespace subsel::serve {
namespace {

class SocketTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<data::Dataset>(data::toy_dataset(1500, 8, 42));
    ground_set_ = std::make_unique<graph::InMemoryGroundSet>(
        dataset_->graph, dataset_->utilities);
    ServerConfig config;
    config.max_concurrent = 2;
    // Small wire limit so the oversized path is cheap to hit.
    config.limits.max_request_bytes = 2048;
    server_ = std::make_unique<SelectionServer>(config);
    server_->register_ground_set("toy", ground_set_.get());

    socket_path_ = testing::process_temp_path("subsel_transport_test").string() + ".sock";
    transport_ = std::make_unique<SocketServer>(*server_, socket_path_);
    accept_thread_ = std::thread([this] { transport_->run(); });
  }

  void TearDown() override {
    transport_->stop();
    accept_thread_.join();
    transport_.reset();
    server_.reset();
  }

  std::unique_ptr<data::Dataset> dataset_;
  std::unique_ptr<graph::InMemoryGroundSet> ground_set_;
  std::unique_ptr<SelectionServer> server_;
  std::unique_ptr<SocketServer> transport_;
  std::thread accept_thread_;
  std::string socket_path_;
};

TEST_F(SocketTransportTest, SelectRoundTrip) {
  ServeClient client(socket_path_);
  ServeRequest request;
  request.id = "rt-1";
  request.dataset = "toy";
  request.k = 50;
  const auto response = client.call(request);
  EXPECT_EQ(response.id, "rt-1");
  EXPECT_EQ(response.status, "complete");
  EXPECT_EQ(response.schema_version, 1);
  EXPECT_EQ(response.selected.size(), 50u);
  EXPECT_EQ(response.selected_count, 50u);
  EXPECT_GT(response.objective, 0.0);
}

TEST_F(SocketTransportTest, ResponsesMatchedByIdNotArrivalOrder) {
  ServeClient client(socket_path_);
  // A batch request big enough to still be solving when the interactive
  // one (which overtakes it in the queue under load) finishes — either
  // ordering on the wire must resolve to the right futures.
  ServeRequest big;
  big.id = "big";
  big.dataset = "toy";
  big.k = 400;
  big.priority = Priority::kBatch;
  ServeRequest small;
  small.id = "small";
  small.dataset = "toy";
  small.k = 10;
  small.priority = Priority::kInteractive;

  auto big_future = client.submit(big);
  auto small_future = client.submit(small);
  const auto small_response = small_future.get();
  const auto big_response = big_future.get();
  EXPECT_EQ(small_response.id, "small");
  EXPECT_EQ(small_response.selected.size(), 10u);
  EXPECT_EQ(big_response.id, "big");
  EXPECT_EQ(big_response.selected.size(), 400u);
}

TEST_F(SocketTransportTest, MalformedLineGetsTypedRejectAndConnectionLives) {
  ServeClient client(socket_path_);
  client.submit_raw("", "this is not json");
  // The reject has no id to echo, so it lands on the unmatched list; the
  // connection survives for a well-formed follow-up.
  ServeRequest request;
  request.id = "after-garbage";
  request.dataset = "toy";
  request.k = 20;
  const auto response = client.call(request);
  EXPECT_EQ(response.status, "complete");

  const auto unmatched = client.take_unmatched();
  ASSERT_EQ(unmatched.size(), 1u);
  EXPECT_EQ(unmatched[0].status, "rejected");
  EXPECT_EQ(unmatched[0].reason, "malformed_json");
}

TEST_F(SocketTransportTest, UnknownSolverRejectEchoesId) {
  ServeClient client(socket_path_);
  const auto response =
      client
          .submit_raw("bad-solver",
                      R"({"type":"select","id":"bad-solver","dataset":"toy",)"
                      R"("k":5,"solver":"nope"})")
          .get();
  EXPECT_EQ(response.id, "bad-solver");
  EXPECT_EQ(response.status, "rejected");
  EXPECT_EQ(response.reason, "unknown_solver");
}

TEST_F(SocketTransportTest, OversizedLineRejectsThenConnectionResyncs) {
  ServeClient client(socket_path_);
  // One giant line (beyond the 2 KiB wire limit), then a valid request on
  // the same connection: the server must shed the former with a typed
  // reject and still answer the latter.
  std::string giant = R"({"type":"select","id":"giant","dataset":")";
  giant += std::string(8192, 'x');
  giant += R"(","k":5})";
  client.submit_raw("", giant);

  ServeRequest request;
  request.id = "after-giant";
  request.dataset = "toy";
  request.k = 20;
  const auto response = client.call(request);
  EXPECT_EQ(response.status, "complete");

  const auto unmatched = client.take_unmatched();
  ASSERT_GE(unmatched.size(), 1u);
  EXPECT_EQ(unmatched[0].status, "rejected");
  EXPECT_EQ(unmatched[0].reason, "oversized_request");
}

TEST_F(SocketTransportTest, ConcurrentConnectionsShareTheServer) {
  constexpr std::size_t kConnections = 4;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> completed{0};
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([this, c, &completed] {
      ServeClient client(socket_path_);
      for (std::size_t r = 0; r < 3; ++r) {
        ServeRequest request;
        request.id = "conn" + std::to_string(c) + "-" + std::to_string(r);
        request.dataset = "toy";
        request.k = 30;
        if (client.call(request).status == "complete") ++completed;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(completed.load(), kConnections * 3);
  EXPECT_EQ(transport_->connections_accepted(), kConnections);
}

TEST_F(SocketTransportTest, StatsOverTheWire) {
  ServeClient client(socket_path_);
  ServeRequest stats;
  stats.kind = ServeRequest::Kind::kStats;
  stats.id = "s1";
  const auto response = client.call(stats);
  EXPECT_EQ(response.status, "ok");
  const JsonValue* datasets = response.document.find("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_EQ(datasets->items().size(), 1u);
  EXPECT_EQ(datasets->items()[0].find("name")->as_string(), "toy");
}

}  // namespace
}  // namespace subsel::serve
