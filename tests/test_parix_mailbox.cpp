// Direct tests of the mailbox, message payloads and failure paths.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "parix/mailbox.h"
#include "parix/message.h"
#include "parix/runtime.h"
#include "support/error.h"

namespace {

using namespace skil::parix;

TEST(PayloadBytes, TrivialAndVectorSizes) {
  EXPECT_EQ(payload_bytes(42), sizeof(int));
  EXPECT_EQ(payload_bytes(3.14), sizeof(double));
  struct Rec {
    double a;
    int b;
  };
  EXPECT_EQ(payload_bytes(Rec{1.0, 2}), sizeof(Rec));
  std::vector<double> v(10);
  EXPECT_EQ(payload_bytes(v), 10 * sizeof(double) + 8);
  std::vector<std::vector<int>> vv{{1, 2}, {3}};
  EXPECT_EQ(payload_bytes(vv), 8 + (2 * sizeof(int) + 8) + (sizeof(int) + 8));
  EXPECT_EQ(payload_bytes(std::string("abc")), 3 + 8);
}

TEST(PayloadBytes, VectorOfStringsSumsElementPayloads) {
  // The generic non-trivial-element overload must sum the elements'
  // own payload_bytes (it used to fall through to the sizeof-based
  // formula, pricing a vector<string> by the string header size).
  std::vector<std::string> names{"ab", "", "cdef"};
  EXPECT_EQ(payload_bytes(names), 8 + (2 + 8) + (0 + 8) + (4 + 8));
  std::vector<std::vector<std::string>> nested{{"x"}, {"yz", "w"}};
  EXPECT_EQ(payload_bytes(nested),
            8 + (8 + (1 + 8)) + (8 + (2 + 8) + (1 + 8)));
}

TEST(PayloadBytes, VectorOfStringsTravelsWithSummedSize) {
  Message msg = make_message<std::vector<std::string>>(
      0, 1, {"hello", "world"}, 0.0);
  EXPECT_EQ(msg.bytes, 8 + (5 + 8) + (5 + 8));
  const auto payload = take_payload<std::vector<std::string>>(msg);
  EXPECT_EQ(payload, (std::vector<std::string>{"hello", "world"}));
}

TEST(Message, RoundTripPreservesPayload) {
  Message msg = make_message<std::vector<int>>(3, 7, {1, 2, 3}, 99.0);
  EXPECT_EQ(msg.src, 3);
  EXPECT_EQ(msg.tag, 7);
  EXPECT_DOUBLE_EQ(msg.arrival_vtime, 99.0);
  EXPECT_TRUE(*msg.type == typeid(std::vector<int>));
  const auto payload = take_payload<std::vector<int>>(msg);
  EXPECT_EQ(payload, (std::vector<int>{1, 2, 3}));
}

TEST(Mailbox, MatchesOnSourceAndTag) {
  Mailbox box;
  box.put(make_message<int>(0, 1, 100, 0.0));
  box.put(make_message<int>(1, 1, 200, 0.0));
  box.put(make_message<int>(0, 2, 300, 0.0));
  Message m = box.get(1, 1);
  EXPECT_EQ(take_payload<int>(m), 200);
  m = box.get(0, 2);
  EXPECT_EQ(take_payload<int>(m), 300);
  m = box.get(0, 1);
  EXPECT_EQ(take_payload<int>(m), 100);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, FifoPerSourceAndTag) {
  Mailbox box;
  for (int i = 0; i < 5; ++i) box.put(make_message<int>(0, 9, i, 0.0));
  for (int i = 0; i < 5; ++i) {
    Message m = box.get(0, 9);
    EXPECT_EQ(take_payload<int>(m), i);
  }
}

TEST(Mailbox, GetTimesOutWhenNothingMatches) {
  Mailbox box;
  box.put(make_message<int>(0, 1, 7, 0.0));
  EXPECT_THROW(box.get(0, 2, std::chrono::milliseconds(50)),
               skil::support::RuntimeFault);
  EXPECT_EQ(box.pending(), 1u);  // the non-matching message stays queued
}

TEST(Mailbox, PoisonWakesBlockedReceiver) {
  Mailbox box;
  std::thread poisoner([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.poison("test poison");
  });
  try {
    box.get(0, 1, std::chrono::seconds(10));
    FAIL() << "expected RuntimeFault";
  } catch (const skil::support::RuntimeFault& e) {
    EXPECT_NE(std::string(e.what()).find("test poison"), std::string::npos);
  }
  poisoner.join();
}

TEST(Mailbox, BlockedGetWakesWhenMessageArrives) {
  Mailbox box;
  std::thread sender([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.put(make_message<int>(2, 5, 77, 1.0));
  });
  Message m = box.get(2, 5, std::chrono::seconds(10));
  EXPECT_EQ(take_payload<int>(m), 77);
  sender.join();
}

TEST(Mailbox, InterleavedTagsFromOneSourceStayFifoPerTag) {
  // One source, two tags interleaved; the receiver drains tag 2 first,
  // then tag 1.  Each tag must come out in its own send order.
  Mailbox box;
  for (int i = 0; i < 6; ++i) box.put(make_message<int>(3, 1 + i % 2, i, 0.0));
  EXPECT_EQ(box.pending(), 6u);
  for (int want : {1, 3, 5}) {
    Message m = box.get(3, 2);
    EXPECT_EQ(take_payload<int>(m), want);
  }
  EXPECT_EQ(box.pending(), 3u);
  for (int want : {0, 2, 4}) {
    Message m = box.get(3, 1);
    EXPECT_EQ(take_payload<int>(m), want);
  }
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, DeepQueueWithOneOddTagDrainsInOrder) {
  constexpr int kDepth = 10000;
  constexpr int kOdd = kDepth / 2;
  Mailbox box;
  for (int i = 0; i < kDepth; ++i)
    box.put(make_message<int>(1, i == kOdd ? 99 : 7, i, 0.0));
  EXPECT_EQ(box.pending(), static_cast<std::size_t>(kDepth));
  // The odd tag sits mid-queue; matching it must not disturb the rest.
  Message odd = box.get(1, 99);
  EXPECT_EQ(take_payload<int>(odd), kOdd);
  EXPECT_EQ(box.pending(), static_cast<std::size_t>(kDepth - 1));
  for (int i = 0; i < kDepth; ++i) {
    if (i == kOdd) continue;
    Message m = box.get(1, 7);
    ASSERT_EQ(take_payload<int>(m), i);
  }
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_THROW(box.get(1, 7, std::chrono::milliseconds(10)),
               skil::support::RuntimeFault);
}

TEST(Mailbox, SourceAboveEveryIdSeenSoFar) {
  Mailbox box;
  box.put(make_message<int>(0, 5, 10, 0.0));
  box.put(make_message<int>(2, 5, 12, 0.0));
  // A receive from a source that has never sent, above every id seen,
  // finds nothing and must not disturb the queued messages.
  EXPECT_THROW(box.get(40, 5, std::chrono::milliseconds(10)),
               skil::support::RuntimeFault);
  EXPECT_EQ(box.pending(), 2u);
  box.put(make_message<int>(63, 5, 73, 0.0));
  EXPECT_EQ(box.pending(), 3u);
  Message m = box.get(63, 5);
  EXPECT_EQ(take_payload<int>(m), 73);
  m = box.get(2, 5);
  EXPECT_EQ(take_payload<int>(m), 12);
  m = box.get(0, 5);
  EXPECT_EQ(take_payload<int>(m), 10);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, PoisonWithMessagesStillQueued) {
  struct CountingWaiter final : Mailbox::Waiter {
    int notified = 0;
    void notify() override { ++notified; }
  };
  Mailbox box;
  box.put(make_message<int>(0, 1, 1, 0.0));
  box.put(make_message<int>(4, 2, 2, 0.0));
  CountingWaiter parked;
  EXPECT_FALSE(box.take_or_wait(4, 3, parked).has_value());
  box.poison("queued poison");
  EXPECT_EQ(parked.notified, 1);
  EXPECT_THROW(box.take_or_wait(4, 2, parked), skil::support::RuntimeFault);
  // Poison wins over a matching queued message, and the queue is left
  // as it was.
  try {
    box.get(0, 1, std::chrono::seconds(10));
    FAIL() << "expected RuntimeFault";
  } catch (const skil::support::RuntimeFault& e) {
    EXPECT_NE(std::string(e.what()).find("queued poison"), std::string::npos);
  }
  EXPECT_EQ(box.pending(), 2u);
}

TEST(SelfSend, ProcessorCanMessageItself) {
  RunConfig config{2, CostModel::t800()};
  spmd_run(config, [](Proc& proc) {
    proc.send<int>(proc.id(), 4, proc.id() * 10);
    EXPECT_EQ(proc.recv<int>(proc.id(), 4), proc.id() * 10);
  });
}

TEST(LinkOccupancy, BackToBackArrivalsSerialise) {
  // Two large messages sent "simultaneously" to one processor cannot
  // both finish arriving at the same instant: the second is delayed by
  // its own transfer time on the receiver's links.
  const CostModel cm = CostModel::t800();
  RunConfig config{3, cm};
  spmd_run(config, [&](Proc& proc) {
    const std::size_t bytes = 100000;
    if (proc.id() != 0) {
      proc.send<std::vector<char>>(0, 1, std::vector<char>(bytes));
    } else {
      proc.recv<std::vector<char>>(1, 1);
      const double after_first = proc.vtime();
      proc.recv<std::vector<char>>(2, 1);
      EXPECT_GE(proc.vtime() - after_first,
                cm.msg_per_byte_us * static_cast<double>(bytes));
    }
  });
}

TEST(SendModes, AsyncBeatsSyncForTheSender) {
  const CostModel cm = CostModel::t800();
  RunConfig config{2, cm};
  spmd_run(config, [&](Proc& proc) {
    if (proc.id() == 0) {
      std::vector<char> big(50000);
      proc.send_mode<std::vector<char>>(1, 1, big, SendMode::kAsync);
      const double async_done = proc.vtime();
      proc.send_mode<std::vector<char>>(1, 2, big, SendMode::kSync);
      const double sync_cost = proc.vtime() - async_done;
      EXPECT_GT(sync_cost, 10 * async_done);
    } else {
      proc.recv<std::vector<char>>(0, 1);
      proc.recv<std::vector<char>>(0, 2);
    }
  });
}

}  // namespace
