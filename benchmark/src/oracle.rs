//! Output oracles, independent of the engine: all-pairs shortest paths by
//! Floyd–Warshall over the topology's link list, a route checker, and a
//! replayer that rebuilds a subscriber's result view from its decoded
//! delta stream.

use std::collections::{BTreeMap, BTreeSet};

use declarative_routing::netsim::Topology;
use declarative_routing::service::protocol::{WireTuple, WireValue};
use declarative_routing::service::Response;
use declarative_routing::types::RouteEntry;

/// Attempted / failed operation counts with the first few failure
/// messages; every workload folds its checks into one of these.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations or checks attempted.
    pub attempted: u64,
    /// Those that errored, were refused, or whose output was wrong.
    pub failed: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one attempted operation that succeeded.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Count one attempted operation that failed, keeping its message.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message.into());
        }
    }

    /// Count one attempted operation; `ok` decides which way.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(message());
        }
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// One finite route as the oracle sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Claimed total cost.
    pub cost: f64,
    /// The hops the route claims to take, `src` first and `dst` last; only
    /// read when a detour is to be tolerated.
    pub path: Vec<u32>,
}

impl From<&RouteEntry> for Route {
    fn from(r: &RouteEntry) -> Route {
        Route {
            src: r.src.index() as u32,
            dst: r.dst.index() as u32,
            cost: r.cost.value(),
            path: r.path.nodes().iter().map(|n| n.index() as u32).collect(),
        }
    }
}

/// All-pairs shortest-path costs of a directed, non-negatively weighted
/// graph.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    n: usize,
    /// Cheapest direct link per ordered pair (∞ where there is none).
    link: Vec<f64>,
    dist: Vec<f64>,
}

impl ShortestPaths {
    /// Floyd–Warshall over `links` (`from`, `to`, `cost`) on `n` nodes.
    pub fn from_links(n: usize, links: impl IntoIterator<Item = (u32, u32, f64)>) -> ShortestPaths {
        let mut link = vec![f64::INFINITY; n * n];
        for (a, b, cost) in links {
            let cell = &mut link[a as usize * n + b as usize];
            *cell = cell.min(cost);
        }
        let mut dist = link.clone();
        for i in 0..n {
            dist[i * n + i] = 0.0;
        }
        for k in 0..n {
            for i in 0..n {
                let ik = dist[i * n + k];
                if !ik.is_finite() {
                    continue;
                }
                for j in 0..n {
                    let through = ik + dist[k * n + j];
                    if through < dist[i * n + j] {
                        dist[i * n + j] = through;
                    }
                }
            }
        }
        ShortestPaths { n, link, dist }
    }

    /// The oracle for `topology`'s current link costs.
    pub fn of(topology: &Topology) -> ShortestPaths {
        ShortestPaths::from_links(
            topology.num_nodes(),
            topology
                .all_links()
                .map(|(a, b, p)| (a.index() as u32, b.index() as u32, p.cost.value())),
        )
    }

    /// Shortest-path cost from `src` to `dst` (∞ when unreachable).
    pub fn cost(&self, src: u32, dst: u32) -> f64 {
        self.dist[src as usize * self.n + dst as usize]
    }

    /// What walking `path` hop by hop costs; `None` when it names a node
    /// outside the topology or takes a link that does not exist.
    pub fn path_cost(&self, path: &[u32]) -> Option<f64> {
        path.windows(2).try_fold(0.0, |sum, hop| {
            let (a, b) = (hop[0] as usize, hop[1] as usize);
            let cost =
                if a < self.n && b < self.n { self.link[a * self.n + b] } else { f64::INFINITY };
            cost.is_finite().then_some(sum + cost)
        })
    }

    /// Ordered pairs `src != dst` with a finite path: the route count a
    /// converged all-pairs query must report.
    pub fn reachable_pairs(&self) -> usize {
        (0..self.n)
            .flat_map(|i| (0..self.n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && self.dist[i * self.n + j].is_finite())
            .count()
    }

    /// Check a converged all-pairs result: every route's cost must equal
    /// the oracle's, no pair may appear twice, and the number of distinct
    /// pairs must equal [`ShortestPaths::reachable_pairs`]. Each route is
    /// one attempted operation, the count check one more.
    pub fn check_routes(&self, what: &str, routes: impl IntoIterator<Item = Route>) -> Tally {
        self.check_routes_with(what, routes, false).0
    }

    /// [`ShortestPaths::check_routes`], optionally tolerating *detours*:
    /// with `tolerate_detours` a route that costs more than the optimum
    /// passes — and is counted in the second return value — provided its
    /// path runs from `src` to `dst` over existing links whose costs add up
    /// to the cost it claims. The caller bounds the count. A cost no path
    /// has, a route cheaper than the optimum, a missing pair or a duplicate
    /// still fails.
    pub fn check_routes_with(
        &self,
        what: &str,
        routes: impl IntoIterator<Item = Route>,
        tolerate_detours: bool,
    ) -> (Tally, u64) {
        let mut tally = Tally::default();
        let mut detours = 0u64;
        let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
        for r in routes {
            if r.src as usize >= self.n || r.dst as usize >= self.n {
                tally.fail(format!("{what}: route {}->{} outside the topology", r.src, r.dst));
                continue;
            }
            let want = self.cost(r.src, r.dst);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * b.abs().max(1.0);
            let detour = tolerate_detours
                && r.cost > want
                && r.path.first() == Some(&r.src)
                && r.path.last() == Some(&r.dst)
                && self.path_cost(&r.path).is_some_and(|walked| close(r.cost, walked));
            if !close(r.cost, want) && !detour {
                tally.fail(format!(
                    "{what}: route {}->{} via {:?} costs {} but the oracle says {want}",
                    r.src, r.dst, r.path, r.cost
                ));
            } else if !seen.insert((r.src, r.dst)) {
                tally.fail(format!("{what}: route {}->{} reported twice", r.src, r.dst));
            } else {
                detours += u64::from(!close(r.cost, want));
                tally.pass();
            }
        }
        let want = self.reachable_pairs();
        tally.check(seen.len() == want, || {
            format!("{what}: {} distinct correct routes, the oracle expects {want}", seen.len())
        });
        (tally, detours)
    }
}

/// A subscriber's view of one query's result multiset, rebuilt by applying
/// its `Delta` frames in arrival order.
#[derive(Debug, Clone, Default)]
pub struct ReplayView {
    rows: BTreeMap<Vec<u8>, (usize, WireTuple)>,
    /// Frames that removed a row the view did not hold.
    pub bad_removals: u64,
    /// `now_millis` of the last delta applied.
    pub last_delta_millis: Option<u64>,
}

impl ReplayView {
    /// Apply one push frame; anything but a `Delta` is ignored.
    pub fn apply(&mut self, frame: &Response) {
        let Response::Delta { now_millis, added, removed, .. } = frame else { return };
        self.last_delta_millis = Some(*now_millis);
        for t in removed {
            let key = tuple_key(t);
            match self.rows.get_mut(&key) {
                Some((count, _)) if *count > 1 => *count -= 1,
                Some(_) => {
                    self.rows.remove(&key);
                }
                None => self.bad_removals += 1,
            }
        }
        for t in added {
            self.rows.entry(tuple_key(t)).or_insert_with(|| (0, t.clone())).0 += 1;
        }
    }

    /// Rows currently held (with multiplicity).
    pub fn len(&self) -> usize {
        self.rows.values().map(|(count, _)| count).sum()
    }

    /// True when the view holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True when the view holds exactly the multiset `rows`.
    pub fn holds_exactly(&self, rows: &[WireTuple]) -> bool {
        let mut want: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
        for t in rows {
            *want.entry(tuple_key(t)).or_insert(0) += 1;
        }
        want.len() == self.rows.len()
            && self.rows.iter().all(|(key, (count, _))| want.get(key) == Some(count))
    }

    /// The finite-cost `bestPath(@S,D,P,C)` rows of the view.
    pub fn finite_routes(&self) -> Vec<Route> {
        self.rows
            .values()
            .flat_map(|(count, t)| std::iter::repeat_n(t, *count))
            .filter_map(wire_route)
            .filter(|r| r.cost.is_finite())
            .collect()
    }
}

/// Decode a `bestPath`-shaped wire tuple (`Node, Node, Path, Cost`).
pub fn wire_route(t: &WireTuple) -> Option<Route> {
    match t.values.as_slice() {
        [WireValue::Node(src), WireValue::Node(dst), WireValue::Path(path), WireValue::Cost(cost)] => {
            Some(Route { src: *src, dst: *dst, cost: *cost, path: path.clone() })
        }
        _ => None,
    }
}

/// True when `frame` is a delta that adds at least one finite route.
pub fn adds_finite_route(frame: &Response) -> bool {
    matches!(frame, Response::Delta { added, .. }
        if added.iter().filter_map(wire_route).any(|r| r.cost.is_finite()))
}

/// An order-preserving byte key for a wire tuple (`WireTuple` holds floats,
/// so it cannot be a map key itself).
fn tuple_key(t: &WireTuple) -> Vec<u8> {
    let mut key = Vec::with_capacity(32);
    key.extend_from_slice(t.relation.as_bytes());
    key.push(0);
    for v in &t.values {
        match v {
            WireValue::Node(n) => {
                key.push(1);
                key.extend_from_slice(&n.to_be_bytes());
            }
            WireValue::Cost(c) => {
                key.push(2);
                key.extend_from_slice(&c.to_bits().to_be_bytes());
            }
            WireValue::Int(i) => {
                key.push(3);
                key.extend_from_slice(&i.to_be_bytes());
            }
            WireValue::Bool(b) => key.extend_from_slice(&[4, u8::from(*b)]),
            WireValue::Str(s) => {
                key.push(5);
                key.extend_from_slice(&(s.len() as u32).to_be_bytes());
                key.extend_from_slice(s.as_bytes());
            }
            WireValue::Path(p) => {
                key.push(6);
                key.extend_from_slice(&(p.len() as u32).to_be_bytes());
                for n in p {
                    key.extend_from_slice(&n.to_be_bytes());
                }
            }
        }
    }
    key
}
