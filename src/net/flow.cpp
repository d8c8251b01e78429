#include "net/flow.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/error.hpp"

namespace tg {

namespace {
constexpr double kBytesPerGbps = 1e9 / 8.0;
}

FlowManager::FlowManager(Engine& engine, const Platform& platform,
                         double host_gbps)
    : engine_(engine),
      platform_(platform),
      host_cap_bps_(host_gbps * kBytesPerGbps) {
  TG_REQUIRE(host_gbps > 0.0, "host cap must be positive");
  // Dijkstra by latency from every source over the (small) site graph.
  const std::size_t n = platform_.sites().size();
  routes_.resize(n * n);
  std::vector<Duration> dist(n);
  std::vector<LinkId> via(n);      // link taken to reach node
  std::vector<SiteId> prev(n);     // predecessor site
  using QE = std::pair<Duration, SiteId::rep>;
  for (std::size_t s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), std::numeric_limits<Duration>::max());
    std::priority_queue<QE, std::vector<QE>, std::greater<>> q;
    dist[s] = 0;
    q.emplace(0, static_cast<SiteId::rep>(s));
    while (!q.empty()) {
      const auto [d, u] = q.top();
      q.pop();
      if (d > dist[static_cast<std::size_t>(u)]) continue;
      for (const Link& link : platform_.links()) {
        SiteId other;
        if (link.a.value() == u) {
          other = link.b;
        } else if (link.b.value() == u) {
          other = link.a;
        } else {
          continue;
        }
        const auto o = static_cast<std::size_t>(other.value());
        const Duration nd = d + link.latency;
        if (nd < dist[o]) {
          dist[o] = nd;
          via[o] = link.id;
          prev[o] = SiteId{u};
          q.emplace(nd, other.value());
        }
      }
    }
    for (std::size_t t = 0; t < n; ++t) {
      Route& r = routes_[s * n + t];
      r.reachable = dist[t] != std::numeric_limits<Duration>::max();
      if (!r.reachable) continue;
      r.latency = dist[t];  // the sum of the path's link latencies
      for (std::size_t at = t; at != s;
           at = static_cast<std::size_t>(prev[at].value())) {
        r.links.push_back(via[at]);
      }
      std::reverse(r.links.begin(), r.links.end());
    }
  }
}

const FlowManager::Route& FlowManager::route_entry(SiteId src,
                                                   SiteId dst) const {
  const std::size_t n = platform_.sites().size();
  const Route& r = routes_[static_cast<std::size_t>(src.value()) * n +
                           static_cast<std::size_t>(dst.value())];
  TG_REQUIRE(r.reachable,
             "no WAN route from site " << src << " to " << dst);
  return r;
}

TransferId FlowManager::start_transfer(SiteId src, SiteId dst, double bytes,
                                       UserId user, ProjectId project,
                                       CompletionCallback on_complete) {
  TG_REQUIRE(bytes >= 0.0, "transfer size must be non-negative");
  const Route& route = route_entry(src, dst);
  const TransferId id{next_id_++};
  Pending p;
  p.flow.id = id;
  p.flow.src = src;
  p.flow.dst = dst;
  p.flow.user = user;
  p.flow.project = project;
  p.flow.total_bytes = bytes;
  p.flow.remaining_bytes = bytes;
  p.flow.submitted = engine_.now();
  p.route = &route;
  p.on_complete = std::move(on_complete);
  flows_.emplace(id, std::move(p));

  engine_.schedule_in(route.latency, [this, id] { activate(id); });
  return id;
}

void FlowManager::activate(TransferId id) {
  auto it = flows_.find(id);
  TG_CHECK(it != flows_.end(), "activating unknown flow " << id);
  Pending& p = it->second;
  p.flow.active = true;
  p.flow.activated = engine_.now();
  ++active_count_;
  if (p.flow.remaining_bytes <= 0.0) {
    complete(id);
    return;
  }
  rebalance();
}

void FlowManager::complete(TransferId id) {
  auto it = flows_.find(id);
  TG_CHECK(it != flows_.end(), "completing unknown flow " << id);
  Pending p = std::move(it->second);
  flows_.erase(it);
  --active_count_;
  p.flow.active = false;
  p.flow.remaining_bytes = 0.0;
  p.flow.completed = engine_.now();
  if (observer_) observer_(p.flow);
  if (p.on_complete) p.on_complete(p.flow);
  rebalance();
}

void FlowManager::rebalance() {
  const SimTime now = engine_.now();
  const double elapsed = to_seconds(now - last_update_);
  last_update_ = now;

  // 1. Charge progress since the last rate change.
  for (auto& [id, p] : flows_) {
    if (!p.flow.active) continue;
    p.flow.remaining_bytes =
        std::max(0.0, p.flow.remaining_bytes - p.flow.rate_bps * elapsed);
  }

  // 2. Progressive filling (max-min fairness). Each flow additionally owns a
  //    virtual "host" link of capacity host_cap_bps_, which caps its rate.
  std::vector<Pending*> active;
  for (auto& [id, p] : flows_) {
    if (p.flow.active) active.push_back(&p);
  }

  const std::size_t nlinks = platform_.links().size();
  std::vector<double> cap(nlinks);
  std::vector<int> users_on_link(nlinks, 0);
  for (std::size_t l = 0; l < nlinks; ++l) {
    cap[l] = platform_.links()[l].gbps * kBytesPerGbps;
  }
  for (Pending* p : active) {
    for (LinkId l : p->route->links) {
      ++users_on_link[static_cast<std::size_t>(l.value())];
    }
  }

  std::vector<double> host_cap(active.size(), host_cap_bps_);
  std::vector<bool> frozen(active.size(), false);
  std::size_t remaining = active.size();
  while (remaining > 0) {
    // Bottleneck share: tightest of (real links, per-flow host caps).
    double min_share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < nlinks; ++l) {
      if (users_on_link[l] > 0) {
        min_share = std::min(min_share, cap[l] / users_on_link[l]);
      }
    }
    for (std::size_t f = 0; f < active.size(); ++f) {
      if (!frozen[f]) min_share = std::min(min_share, host_cap[f]);
    }
    TG_CHECK(min_share < std::numeric_limits<double>::infinity(),
             "no bottleneck found with flows remaining");

    // Freeze every unfrozen flow constrained at the bottleneck rate.
    bool froze_any = false;
    for (std::size_t f = 0; f < active.size(); ++f) {
      if (frozen[f]) continue;
      bool at_bottleneck = host_cap[f] <= min_share * (1 + 1e-12);
      for (LinkId l : active[f]->route->links) {
        const auto li = static_cast<std::size_t>(l.value());
        if (cap[li] / users_on_link[li] <= min_share * (1 + 1e-12)) {
          at_bottleneck = true;
        }
      }
      if (!at_bottleneck) continue;
      active[f]->flow.rate_bps = min_share;
      frozen[f] = true;
      froze_any = true;
      --remaining;
      for (LinkId l : active[f]->route->links) {
        const auto li = static_cast<std::size_t>(l.value());
        cap[li] -= min_share;
        --users_on_link[li];
      }
    }
    TG_CHECK(froze_any, "max-min filling made no progress");
  }

  // 3. Reschedule completion events at the new rates.
  for (Pending* p : active) {
    if (p->completion_event != kInvalidEvent) {
      engine_.cancel(p->completion_event);
      p->completion_event = kInvalidEvent;
    }
    TG_CHECK(p->flow.rate_bps > 0.0, "active flow with zero rate");
    const double secs = p->flow.remaining_bytes / p->flow.rate_bps;
    const TransferId id = p->flow.id;
    p->completion_event =
        engine_.schedule_in(from_seconds(secs), [this, id] { complete(id); },
                            EventPriority::kCompletion);
  }
}

double FlowManager::flow_rate_bps(TransferId id) const {
  const auto it = flows_.find(id);
  if (it == flows_.end() || !it->second.flow.active) return 0.0;
  return it->second.flow.rate_bps;
}

}  // namespace tg
