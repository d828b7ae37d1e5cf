/**
 * @file
 * Front-end router: key placement + checkpoint coordination behind
 * the cluster's client pool.
 *
 * The router is synchronizer node 0. Its ClientPool (workload/
 * client.h) runs the cluster's clients in either loop mode over the
 * cluster-level workload and global key space; the router is the
 * pool's sink: it places each op on a shard via the precomputed
 * consistent-hash placement, sends it as a Request, and hands the
 * Response back to the pool, which records client-visible latency.
 * Under the Synchronized and Staggered policies it also runs the
 * checkpoint coordinator that sends CkptControl messages to the
 * shards.
 */

#ifndef CHECKIN_CLUSTER_ROUTER_H_
#define CHECKIN_CLUSTER_ROUTER_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/node.h"
#include "workload/client.h"

namespace checkin {

/** Key placement: global key -> (owning shard, shard-local key). */
struct Placement
{
    std::vector<std::uint32_t> shardOf;
    std::vector<std::uint64_t> localKey;
};

/** Router-side (client-visible) outcome of a cluster run: the client
 *  pool's stats plus the routing totals. */
struct RouterStats : ClientStats
{
    /** Ops routed to a shard (both loop modes). */
    std::uint64_t opsIssued = 0;
    std::uint64_t totalBytes = 0; //!< value payload bytes routed
    std::uint64_t ckptControls = 0;
    /** Per-shard routing totals (the validator checks these equal
     *  the shard-side counters exactly). */
    std::vector<std::uint64_t> routedOps;
    std::vector<std::uint64_t> routedBytes;
};

/** The front-end node (synchronizer node 0). */
class RouterNode : public ClusterNode
{
  public:
    RouterNode(std::uint64_t seed, const ClusterConfig &cfg,
               const Placement &placement);

    /**
     * Begin the run at @p t0: start the client pool and (policy
     * permitting) the checkpoint coordinator. @p t0 must be at or
     * after every shard's load-quiesce tick so no request is
     * delivered into a shard's past.
     */
    void start(Tick t0);

    /** True once every workload operation has completed. */
    bool done() const { return pool_.done(); }

    const RouterStats &stats() const { return stats_; }

  protected:
    void onMessage(const Message &m) override;

  private:
    /** The pool's sink: send @p op to its shard as a Request from
     *  @p client (the pool's service slot). */
    void routeOp(const WorkloadGenerator::Op &op,
                 std::uint32_t client);
    void onCoordinatorTimer();

    const ClusterConfig &cfg_;
    const Placement &placement_;
    Tick coordPeriod_ = 0;     //!< coordinator self-reschedule period
    std::uint32_t nextCkptShard_ = 0; //!< staggered rotation cursor
    RouterStats stats_;
    /** The cluster's clients; accounts into stats_ (declared first). */
    ClientPool pool_;
};

} // namespace checkin

#endif // CHECKIN_CLUSTER_ROUTER_H_
