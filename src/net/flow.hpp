// Wide-area data movement: GridFTP-style bulk flows over the platform WAN.
//
// Active flows share link bandwidth max-min fairly (progressive filling).
// Rates are recomputed on every flow arrival/departure — exact and cheap at
// WAN flow counts. Each flow is also capped by an end-host rate, modelling
// the data-mover nodes at each site. Routes are computed once, at
// construction: one Dijkstra per source site fills a site-by-site table.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "des/engine.hpp"
#include "infra/platform.hpp"
#include "util/ids.hpp"

namespace tg {

struct Flow {
  TransferId id;
  SiteId src;
  SiteId dst;
  UserId user;
  ProjectId project;
  double total_bytes = 0.0;
  double remaining_bytes = 0.0;
  double rate_bps = 0.0;  ///< bytes/sec, assigned by max-min sharing
  SimTime submitted = 0;
  SimTime activated = 0;  ///< after path latency
  SimTime completed = 0;
  bool active = false;
};

class FlowManager {
 public:
  using CompletionCallback = std::function<void(const Flow&)>;

  /// `host_gbps` caps each individual flow (per-site data-mover limit).
  FlowManager(Engine& engine, const Platform& platform,
              double host_gbps = 10.0);

  /// Starts a transfer of `bytes` from `src` to `dst`. `on_complete` fires
  /// when the last byte lands (after bandwidth sharing and path latency).
  TransferId start_transfer(SiteId src, SiteId dst, double bytes, UserId user,
                            ProjectId project,
                            CompletionCallback on_complete = nullptr);

  /// Least-latency path between two sites, from the route table. Empty for
  /// intra-site movement; throws when no WAN path connects the sites.
  [[nodiscard]] const std::vector<LinkId>& route(SiteId src,
                                                 SiteId dst) const {
    return route_entry(src, dst).links;
  }
  [[nodiscard]] Duration path_latency(SiteId src, SiteId dst) const {
    return route_entry(src, dst).latency;
  }

  [[nodiscard]] std::size_t active_flows() const { return active_count_; }
  /// Current rate of a live flow in bytes/sec; 0 if finished/unknown.
  [[nodiscard]] double flow_rate_bps(TransferId id) const;

  /// Global hook invoked for every completed flow (accounting taps this).
  void set_transfer_observer(CompletionCallback observer) {
    observer_ = std::move(observer);
  }

 private:
  struct Route {
    std::vector<LinkId> links;
    Duration latency = 0;
    bool reachable = false;
  };
  struct Pending {
    Flow flow;
    const Route* route = nullptr;  ///< entry of routes_
    CompletionCallback on_complete;
    EventId completion_event = kInvalidEvent;
  };

  [[nodiscard]] const Route& route_entry(SiteId src, SiteId dst) const;
  void activate(TransferId id);
  void complete(TransferId id);
  /// Charges elapsed bytes, recomputes max-min rates, reschedules finishes.
  void rebalance();

  Engine& engine_;
  const Platform& platform_;
  double host_cap_bps_;
  std::vector<Route> routes_;  ///< [src * sites + dst]
  std::map<TransferId, Pending> flows_;  // ordered for deterministic iteration
  CompletionCallback observer_;
  SimTime last_update_ = 0;
  std::size_t active_count_ = 0;
  std::int64_t next_id_ = 0;
};

}  // namespace tg
