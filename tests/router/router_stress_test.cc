/**
 * @file
 * Randomized stress of a single router: many packets from random
 * inputs to random destinations, with credits returned after random
 * delays. Properties: nothing is lost, per-packet flit order holds,
 * per-VC wormhole integrity holds, the router empties, and its
 * incremental work masks match its flat state after every tick.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>

#include "common/rng.hh"
#include "router/router.hh"

using namespace oenet;

namespace {

struct CreditProbe : CreditSink
{
    std::map<std::pair<int, int>, int> credits;
    void returnCredit(int port, int vc, Cycle) override
    {
        credits[{port, vc}]++;
    }
};

} // namespace

class RouterStressTest : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static constexpr int kCluster = 4;
    static constexpr int kPorts = kCluster + 4;
    static constexpr int kVcs = 2;
    static constexpr int kVcDepth = 8;

    RouterStressTest()
        : mesh_(3, 3, kCluster),
          levels_(BitrateLevelTable::linear(5.0, 10.0, 6))
    {
        Router::Params rp;
        rp.numVcs = kVcs;
        rp.bufferDepthPerPort = kVcs * kVcDepth;
        // Center router: all four directions wired.
        router_ = std::make_unique<Router>("rc", mesh_.routerAt(1, 1), mesh_, rp);
        OpticalLink::Params lp;
        for (int p = 0; p < kPorts; p++) {
            in_.push_back(std::make_unique<OpticalLink>(
                "in" + std::to_string(p), LinkKind::kInterRouter,
                levels_, lp));
            out_.push_back(std::make_unique<OpticalLink>(
                "out" + std::to_string(p), LinkKind::kInterRouter,
                levels_, lp));
            router_->connectInput(p, in_[static_cast<std::size_t>(p)].get(),
                                  &probe_, p);
            router_->connectOutput(
                p, out_[static_cast<std::size_t>(p)].get(), kVcDepth);
        }
    }

    MeshTopology mesh_;
    BitrateLevelTable levels_;
    CreditProbe probe_;
    std::unique_ptr<Router> router_;
    std::vector<std::unique_ptr<OpticalLink>> in_;
    std::vector<std::unique_ptr<OpticalLink>> out_;
};

TEST_P(RouterStressTest, ConservationOrderAndDrain)
{
    Rng rng(GetParam());

    // Pending feed per (input port, vc): flits not yet offered.
    std::map<std::pair<int, int>, std::deque<Flit>> feed;
    std::map<std::pair<int, int>, int> outstanding; // credits in use
    std::uint64_t flits_in = 0;

    // Generate packets. Destinations chosen so XY routing spreads them
    // over several output ports of the center router at (1,1).
    PacketId next_id = 1;
    for (int i = 0; i < 60; i++) {
        int in_port = static_cast<int>(rng.uniformInt(kPorts));
        int vc = static_cast<int>(rng.uniformInt(kVcs));
        auto dst = static_cast<NodeId>(
            rng.uniformInt(static_cast<std::uint64_t>(mesh_.numNodes())));
        int len = 1 + static_cast<int>(rng.uniformInt(6));
        std::vector<Flit> flits;
        flitizePacket(flits, next_id++, 0, dst, len, 0);
        for (Flit &f : flits) {
            f.vc = static_cast<std::uint8_t>(vc);
            feed[{in_port, vc}].push_back(f);
        }
    }

    // Delayed credit returns for output ports.
    std::deque<std::pair<Cycle, std::pair<int, int>>> credit_queue;
    std::map<PacketId, int> last_seq;
    std::map<std::pair<int, int>, PacketId> open_packet; // (port,vc)
    std::uint64_t flits_out = 0;

    for (Cycle t = 0; t < 30000; t++) {
        router_->tick(t);
        router_->auditMasks();

        // Offer one flit per input port, respecting credits.
        for (int p = 0; p < kPorts; p++) {
            for (int vc = 0; vc < kVcs; vc++) {
                auto key = std::make_pair(p, vc);
                auto &q = feed[key];
                if (q.empty())
                    continue;
                // Wormhole: one packet at a time per VC from upstream;
                // the feed queue is already packet-ordered.
                int returned = probe_.credits[key];
                if (outstanding[key] - returned >= kVcDepth)
                    continue;
                if (!in_[static_cast<std::size_t>(p)]->canAccept(t))
                    continue;
                in_[static_cast<std::size_t>(p)]->accept(t, q.front());
                q.pop_front();
                outstanding[key]++;
                flits_in++;
            }
        }

        // Drain outputs with randomly delayed credit returns.
        for (int q = 0; q < kPorts; q++) {
            auto *link = out_[static_cast<std::size_t>(q)].get();
            while (link->hasArrival(t)) {
                Flit f = link->popArrival(t);
                flits_out++;

                // Per-packet order.
                auto it = last_seq.find(f.packet);
                if (it != last_seq.end()) {
                    EXPECT_EQ(static_cast<int>(f.seq), it->second + 1)
                        << "packet " << f.packet;
                }
                last_seq[f.packet] = f.seq;

                // Wormhole integrity: one packet owns (port, vc) from
                // head to tail.
                auto channel = std::make_pair(q, static_cast<int>(f.vc));
                if (f.isHead()) {
                    EXPECT_EQ(open_packet.count(channel), 0u)
                        << "head interleaved on open channel";
                    if (!f.isTail())
                        open_packet[channel] = f.packet;
                } else {
                    auto open = open_packet.find(channel);
                    ASSERT_NE(open, open_packet.end());
                    EXPECT_EQ(open->second, f.packet);
                }
                if (f.isTail())
                    open_packet.erase(channel);

                credit_queue.push_back(
                    {t + 1 + rng.uniformInt(20), channel});
            }
        }
        while (!credit_queue.empty() &&
               credit_queue.front().first <= t) {
            auto [port, vc] = credit_queue.front().second;
            router_->returnCredit(port, vc, t);
            credit_queue.pop_front();
        }
        router_->auditMasks();
    }

    std::uint64_t total_fed = 0;
    for (auto &kv : feed)
        total_fed += kv.second.size();
    EXPECT_EQ(total_fed, 0u) << "feed did not finish";
    EXPECT_EQ(flits_out, flits_in);
    EXPECT_EQ(router_->totalBufferedFlits(), 0);
    EXPECT_TRUE(open_packet.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterStressTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));
