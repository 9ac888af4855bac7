//! Multi-tier relay topologies: source → relay(s) → edge-mirror DAGs
//! and the composed-freshness recursion evaluated over them.
//!
//! The paper's model has one mirror polling one source. CDN-shaped
//! deployments interpose relay tiers: an edge mirror polls a relay,
//! the relay polls the source, and each hop has its own bandwidth
//! budget. End-user perceived freshness is measured **at the edge**,
//! where an element's copy is fresh only if every hop of some path has
//! propagated the current source version.
//!
//! ## The composed-freshness recursion
//!
//! Element `i` changes at the source as a Poisson process with rate
//! `λᵢ`. By PASTA, at a random observation instant the age `A` of the
//! current source version is `Exp(λᵢ)`. A tier's copy is fresh iff a
//! chain of successive polls — one per hop on some source→tier path —
//! completed inside that age window. Because poll processes are
//! independent of the change process (and of each other), the wait at
//! each hop after the upstream acquires the version is the stationary
//! residual of that hop's poll process: `Exp(f)` for Poisson polling,
//! `Unif(0, 1/f)` for Fixed-Order polling with an independent phase.
//! The chain therefore completes within `A` with probability
//!
//! ```text
//! P(Σⱼ Wⱼ ≤ A) = E[e^{−λ·ΣWⱼ}] = Πⱼ E[e^{−λWⱼ}] = Πⱼ F̄(λ, fⱼ)
//! ```
//!
//! — the per-hop Laplace transform `E[e^{−λW}]` is *exactly* the
//! single-hop freshness law of the policy (`(f/λ)(1−e^{−λ/f})` for
//! Fixed-Order, `f/(λ+f)` for Poisson). Composed freshness down a
//! chain is the **product of per-hop freshness factors at the original
//! source rate**: the recursion `F_k = F_{k−1} · F̄(λ, f_k)` from the
//! cache-chain analysis (Bastopcu & Ulukus's cache updating systems),
//! with the attenuation of upstream staleness appearing as the
//! `F_{k−1}` factor.
//!
//! A node with several parents (Kaswan et al.'s parallel relays) is
//! fresh unless *every* parent path failed to deliver. Conditioned on
//! the version age the per-parent chains are independent, so the
//! recursion composes as `F = 1 − Π_r (1 − F_r · F̄(λ, f_r))`. (The
//! closed form multiplies the *unconditional* path probabilities; the
//! exact value couples the paths through the shared age and is
//! slightly lower. For a single parent the expression is exact, and it
//! is evaluated as the product `F_r · F̄(λ, f_r)` itself, so a one-tier
//! topology scores exactly the flat problem's freshness; the Monte-Carlo
//! validator in `freshen-sim` measures the gap.)
//!
//! Version-aware merging is assumed throughout: a poll replaces the
//! local copy only with a strictly newer version, so a stale parent
//! can never overwrite a fresher copy delivered by another path.

use crate::error::{CoreError, Result};
use crate::exec::Executor;
use crate::json::Json;
use crate::numeric::NeumaierSum;
use crate::policy::{sum_terms, SyncPolicy};
use crate::problem::{Problem, ProblemBuilder};

/// One directed hop: `to` polls `from` over this link, optionally for
/// only a subset of elements.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Upstream node index.
    pub from: usize,
    /// Downstream node index (the poller; budget is drawn from it).
    pub to: usize,
    /// Elements carried by this link (sorted, deduplicated), or `None`
    /// for the full element set.
    pub elements: Option<Vec<usize>>,
}

impl Link {
    /// Whether this link carries element `i`.
    #[inline]
    pub fn carries(&self, i: usize) -> bool {
        match &self.elements {
            None => true,
            Some(subset) => subset.binary_search(&i).is_ok(),
        }
    }
}

/// A validated source → relay(s) → edge-mirror DAG.
///
/// Node 0 is always the source; every other node is a tier with its
/// own bandwidth budget and per-poll cost scale. Cycles, orphan nodes,
/// dangling link endpoints, and subsets of elements the upstream does
/// not mirror are all rejected at [`TopologyBuilder::build`] time as
/// [`CoreError`]s — an instance of this type is structurally sound by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    names: Vec<String>,
    budgets: Vec<f64>,
    poll_costs: Vec<f64>,
    links: Vec<Link>,
    incoming: Vec<Vec<usize>>,
    outgoing: Vec<Vec<usize>>,
    order: Vec<usize>,
    sinks: Vec<usize>,
    n_elements: usize,
}

/// Per-link refresh frequencies for a [`Topology`] — the tiered
/// counterpart of a flat frequency vector.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredSchedule {
    /// `link_freqs[l][i]` is the poll frequency of element `i` over
    /// link `l` (same order as [`Topology::links`]); elements a link
    /// does not carry must sit at 0.
    pub link_freqs: Vec<Vec<f64>>,
}

impl TieredSchedule {
    /// An all-zero schedule shaped for `topology`.
    pub fn zero(topology: &Topology) -> TieredSchedule {
        TieredSchedule {
            link_freqs: vec![vec![0.0; topology.n_elements()]; topology.links().len()],
        }
    }

    /// Structural validation against a topology: one full-length,
    /// finite, non-negative vector per link, zero off the carried set.
    pub fn validate(&self, topology: &Topology) -> Result<()> {
        if self.link_freqs.len() != topology.links().len() {
            return Err(CoreError::LengthMismatch {
                what: "tiered schedule links",
                expected: topology.links().len(),
                actual: self.link_freqs.len(),
            });
        }
        for (l, freqs) in self.link_freqs.iter().enumerate() {
            if freqs.len() != topology.n_elements() {
                return Err(CoreError::LengthMismatch {
                    what: "tiered schedule frequencies",
                    expected: topology.n_elements(),
                    actual: freqs.len(),
                });
            }
            let link = &topology.links()[l];
            for (i, &f) in freqs.iter().enumerate() {
                if !f.is_finite() || f < 0.0 {
                    return Err(CoreError::InvalidValue {
                        what: "tiered schedule frequency",
                        index: Some(i),
                        value: f,
                    });
                }
                if f > 0.0 && !link.carries(i) {
                    return Err(CoreError::InvalidConfig(format!(
                        "topology: link {} does not carry element {i} but its \
                         schedule gives it frequency {f}",
                        topology.link_label(l)
                    )));
                }
            }
        }
        Ok(())
    }
}

impl Topology {
    /// Start building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Number of nodes, source included.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// The element-universe size this topology was validated against.
    pub fn n_elements(&self) -> usize {
        self.n_elements
    }

    /// Node names; index 0 is the source.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Per-node bandwidth budgets (0 for the source, which never
    /// polls).
    pub fn budgets(&self) -> &[f64] {
        &self.budgets
    }

    /// Per-node per-poll cost scale (multiplies the problem's cost
    /// column for polls issued by that node).
    pub fn poll_costs(&self) -> &[f64] {
        &self.poll_costs
    }

    /// All links, in declaration order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Indices into [`links`](Self::links) of the links *into* `node`
    /// (the polls that draw on `node`'s budget).
    pub fn incoming(&self, node: usize) -> &[usize] {
        &self.incoming[node]
    }

    /// Indices into [`links`](Self::links) of the links *out of*
    /// `node`.
    pub fn outgoing(&self, node: usize) -> &[usize] {
        &self.outgoing[node]
    }

    /// Nodes in topological order; `order()[0]` is the source.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Edge mirrors: nodes with no outgoing links. PF is measured here.
    pub fn sinks(&self) -> &[usize] {
        &self.sinks
    }

    /// `"from→to"` display label for link `l`.
    pub fn link_label(&self, l: usize) -> String {
        let link = &self.links[l];
        format!("{}→{}", self.names[link.from], self.names[link.to])
    }

    /// True when every non-source node has exactly one parent (chains
    /// and trees) — the case where the composed recursion is exact and
    /// the tiered block solve is an exact block maximization.
    pub fn is_tree(&self) -> bool {
        (1..self.node_count()).all(|n| self.incoming[n].len() == 1)
    }

    /// Per-node, per-element composed freshness under `schedule`.
    ///
    /// Row `n` is node `n`'s probability of holding the current source
    /// version of each element at a random instant, by the recursion
    /// documented on the module. The source row is all ones; an
    /// element with no carrying path into a node scores 0 there.
    pub fn node_freshness(
        &self,
        problem: &Problem,
        schedule: &TieredSchedule,
        policy: SyncPolicy,
    ) -> Result<Vec<Vec<f64>>> {
        self.check_problem(problem)?;
        schedule.validate(self)?;
        let lam = problem.change_rates();
        let n = self.n_elements;
        let mut fresh = vec![vec![0.0f64; n]; self.node_count()];
        fresh[0] = vec![1.0; n];
        for &node in &self.order {
            if node == 0 {
                continue;
            }
            let row = &mut vec![0.0f64; n];
            for i in 0..n {
                // Staleness is the product over carrying parents of
                // each path failing to deliver inside the age window. One
                // carrying parent composes as the product itself:
                // `1 − (1 − F·hop)` can round away from `F·hop`.
                let (mut stale, mut carriers, mut path) = (1.0f64, 0usize, 0.0f64);
                for &l in &self.incoming[node] {
                    let link = &self.links[l];
                    if !link.carries(i) {
                        continue;
                    }
                    carriers += 1;
                    let hop = policy.freshness(lam[i], schedule.link_freqs[l][i]);
                    path = fresh[link.from][i] * hop;
                    stale *= 1.0 - path;
                }
                row[i] = match carriers {
                    0 => 0.0,
                    1 => path,
                    _ => 1.0 - stale,
                };
            }
            fresh[node] = std::mem::take(row);
        }
        Ok(fresh)
    }

    /// Perceived freshness `Σ pᵢ·Fᵢ` at each node, summed by [`sum_terms`].
    pub fn node_pf(
        &self,
        problem: &Problem,
        schedule: &TieredSchedule,
        policy: SyncPolicy,
    ) -> Result<Vec<f64>> {
        let fresh = self.node_freshness(problem, schedule, policy)?;
        let p = problem.access_probs();
        Ok(fresh
            .iter()
            .map(|row| sum_terms([p, row], &Executor::serial(), |[p, f]| [p * f])[0])
            .collect())
    }

    /// End-user PF: the mean of [`node_pf`](Self::node_pf) over the
    /// edge mirrors (sinks weighted uniformly).
    pub fn edge_pf(
        &self,
        problem: &Problem,
        schedule: &TieredSchedule,
        policy: SyncPolicy,
    ) -> Result<f64> {
        let pf = self.node_pf(problem, schedule, policy)?;
        let mut acc = NeumaierSum::new();
        for &s in &self.sinks {
            acc.add(pf[s]);
        }
        Ok(acc.total() / self.sinks.len() as f64)
    }

    /// Bandwidth spent by each node (the sum over its incoming links
    /// of `Σ sᵢ·fᵢ`, compensated).
    pub fn node_spend(&self, problem: &Problem, schedule: &TieredSchedule) -> Result<Vec<f64>> {
        self.check_problem(problem)?;
        schedule.validate(self)?;
        let sizes = problem.sizes();
        let mut spend = vec![0.0f64; self.node_count()];
        for (node, s) in spend.iter_mut().enumerate() {
            let mut acc = NeumaierSum::new();
            for &l in &self.incoming[node] {
                for (i, &f) in schedule.link_freqs[l].iter().enumerate() {
                    if f != 0.0 {
                        acc.add(f * sizes[i]);
                    }
                }
            }
            *s = acc.total();
        }
        Ok(spend)
    }

    /// Verify no node spends beyond its budget (relative tolerance
    /// `tol`); the breach names the node and the overdraft.
    pub fn check_budgets(
        &self,
        problem: &Problem,
        schedule: &TieredSchedule,
        tol: f64,
    ) -> Result<()> {
        let spend = self.node_spend(problem, schedule)?;
        for (node, &used) in spend.iter().enumerate().skip(1) {
            let budget = self.budgets[node];
            if used > budget * (1.0 + tol) {
                return Err(CoreError::Inconsistent {
                    routine: "topology budget check",
                    invariant: "a tier spent more bandwidth than its budget",
                });
            }
        }
        Ok(())
    }

    /// A copy with different per-node budgets (source entry ignored);
    /// structure is untouched so no re-validation is needed.
    pub fn with_budgets(&self, budgets: &[f64]) -> Result<Topology> {
        if budgets.len() != self.node_count() {
            return Err(CoreError::LengthMismatch {
                what: "topology budgets",
                expected: self.node_count(),
                actual: budgets.len(),
            });
        }
        for (n, &b) in budgets.iter().enumerate().skip(1) {
            if !b.is_finite() || b <= 0.0 {
                return Err(CoreError::InvalidConfig(format!(
                    "topology: budget for tier `{}` must be positive and finite, got {b}",
                    self.names[n]
                )));
            }
        }
        let mut out = self.clone();
        out.budgets = budgets.to_vec();
        out.budgets[0] = 0.0;
        Ok(out)
    }

    fn check_problem(&self, problem: &Problem) -> Result<()> {
        if problem.len() != self.n_elements {
            return Err(CoreError::LengthMismatch {
                what: "topology elements",
                expected: self.n_elements,
                actual: problem.len(),
            });
        }
        Ok(())
    }

    /// Parse a topology from its JSON spec (see `DESIGN.md` §17):
    ///
    /// ```json
    /// {"nodes": [{"id": "origin", "role": "source"},
    ///            {"id": "relay", "budget": 120.0},
    ///            {"id": "edge", "budget": 60.0, "poll_cost": 2.0}],
    ///  "links": [{"from": "origin", "to": "relay"},
    ///            {"from": "relay", "to": "edge", "elements": [0, 1]}]}
    /// ```
    ///
    /// Parsed with the [`crate::json`] reader.
    pub fn from_spec(doc: &Json, n_elements: usize) -> Result<Topology> {
        let mut builder = Topology::builder();
        let nodes = doc
            .get("nodes")
            .ok_or_else(|| CoreError::InvalidConfig("topology spec: missing `nodes`".into()))?
            .as_arr("nodes")?;
        for node in nodes {
            let id = node
                .get("id")
                .ok_or_else(|| CoreError::InvalidConfig("topology spec: node lacks `id`".into()))?
                .as_str("node id")?;
            let is_source = match node.get("role") {
                Some(role) => role.as_str("node role")? == "source",
                None => false,
            };
            if is_source {
                builder = builder.source(id);
            } else {
                let budget = node
                    .get("budget")
                    .ok_or_else(|| {
                        CoreError::InvalidConfig(format!(
                            "topology spec: tier `{id}` lacks `budget`"
                        ))
                    })?
                    .as_f64("tier budget")?;
                let poll_cost = match node.get("poll_cost") {
                    Some(v) => v.as_f64("tier poll_cost")?,
                    None => 1.0,
                };
                builder = builder.tier_with_cost(id, budget, poll_cost);
            }
        }
        let links = doc
            .get("links")
            .ok_or_else(|| CoreError::InvalidConfig("topology spec: missing `links`".into()))?
            .as_arr("links")?;
        for link in links {
            let from = link
                .get("from")
                .ok_or_else(|| CoreError::InvalidConfig("topology spec: link lacks `from`".into()))?
                .as_str("link from")?;
            let to = link
                .get("to")
                .ok_or_else(|| CoreError::InvalidConfig("topology spec: link lacks `to`".into()))?
                .as_str("link to")?;
            match link.get("elements") {
                None | Some(Json::Null) => builder = builder.link(from, to),
                Some(subset) => {
                    let items = subset.as_arr("link elements")?;
                    let mut elements = Vec::with_capacity(items.len());
                    for item in items {
                        elements.push(item.as_usize("link element")?);
                    }
                    builder = builder.link_subset(from, to, elements);
                }
            }
        }
        builder.build(n_elements)
    }

    /// Parse a topology spec document from text.
    pub fn from_spec_str(text: &str, n_elements: usize) -> Result<Topology> {
        Topology::from_spec(&Json::parse(text)?, n_elements)
    }

    /// Deterministic spec JSON (round-trips through
    /// [`from_spec`](Self::from_spec)).
    pub fn to_spec_json(&self) -> String {
        let mut s = String::with_capacity(128 + 64 * (self.names.len() + self.links.len()));
        s.push_str("{\"nodes\":[");
        for (n, name) in self.names.iter().enumerate() {
            if n > 0 {
                s.push(',');
            }
            s.push_str("{\"id\":\"");
            s.push_str(name);
            if n == 0 {
                s.push_str("\",\"role\":\"source\"}");
            } else {
                s.push_str("\",\"budget\":");
                s.push_str(&format!("{}", self.budgets[n]));
                s.push_str(",\"poll_cost\":");
                s.push_str(&format!("{}", self.poll_costs[n]));
                s.push('}');
            }
        }
        s.push_str("],\"links\":[");
        for (l, link) in self.links.iter().enumerate() {
            if l > 0 {
                s.push(',');
            }
            s.push_str("{\"from\":\"");
            s.push_str(&self.names[link.from]);
            s.push_str("\",\"to\":\"");
            s.push_str(&self.names[link.to]);
            s.push('"');
            if let Some(subset) = &link.elements {
                s.push_str(",\"elements\":[");
                for (k, i) in subset.iter().enumerate() {
                    if k > 0 {
                        s.push(',');
                    }
                    s.push_str(&i.to_string());
                }
                s.push(']');
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// Parse the inline `"problem"` block of a topology spec file. It uses
/// the field names of [`Problem::to_json`] (`change_rates`,
/// `access_probs`, optional `sizes`/`costs`, `bandwidth`), but
/// `access_probs` here are raw weights that the builder normalizes, as
/// hand-written specs give them.
pub fn problem_from_json(doc: &Json) -> Result<Problem> {
    fn vec_field(doc: &Json, key: &str) -> Result<Option<Vec<f64>>> {
        match doc.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => value.as_f64_vec(key).map(Some),
        }
    }
    let rates = vec_field(doc, "change_rates")?
        .ok_or_else(|| CoreError::InvalidConfig("problem spec: missing `change_rates`".into()))?;
    let probs = vec_field(doc, "access_probs")?
        .ok_or_else(|| CoreError::InvalidConfig("problem spec: missing `access_probs`".into()))?;
    let bandwidth = doc
        .get("bandwidth")
        .ok_or_else(|| CoreError::InvalidConfig("problem spec: missing `bandwidth`".into()))?
        .as_f64("bandwidth")?;
    let mut builder: ProblemBuilder = Problem::builder()
        .change_rates(rates)
        .access_weights(probs)
        .bandwidth(bandwidth);
    if let Some(sizes) = vec_field(doc, "sizes")? {
        builder = builder.sizes(sizes);
    }
    if let Some(costs) = vec_field(doc, "costs")? {
        builder = builder.costs(costs);
    }
    builder.build()
}

/// Incremental [`Topology`] construction; all validation happens in
/// [`build`](Self::build).
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    source: Option<String>,
    tiers: Vec<(String, f64, f64)>,
    links: Vec<(String, String, Option<Vec<usize>>)>,
}

impl TopologyBuilder {
    /// Declare the source node (exactly one required).
    pub fn source(mut self, name: impl Into<String>) -> Self {
        // A second call is recorded as a duplicate-name error at build.
        let name = name.into();
        match &self.source {
            None => self.source = Some(name),
            Some(_) => self.tiers.push((name, f64::NAN, f64::NAN)),
        }
        self
    }

    /// Declare a tier (relay or edge mirror) with its bandwidth budget.
    pub fn tier(self, name: impl Into<String>, budget: f64) -> Self {
        self.tier_with_cost(name, budget, 1.0)
    }

    /// Declare a tier with a bandwidth budget and a per-poll cost scale
    /// (multiplies the problem's cost column for this tier's polls).
    pub fn tier_with_cost(mut self, name: impl Into<String>, budget: f64, poll_cost: f64) -> Self {
        self.tiers.push((name.into(), budget, poll_cost));
        self
    }

    /// Declare a full-catalog link: `to` polls `from` for every element.
    pub fn link(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.links.push((from.into(), to.into(), None));
        self
    }

    /// Declare a link carrying only `elements` (deduplicated and
    /// sorted at build).
    pub fn link_subset(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        elements: Vec<usize>,
    ) -> Self {
        self.links.push((from.into(), to.into(), Some(elements)));
        self
    }

    /// Validate and freeze. `n_elements` is the element-universe size
    /// the subsets are checked against (the paired [`Problem`]'s
    /// length).
    pub fn build(self, n_elements: usize) -> Result<Topology> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(format!("topology: {msg}")));
        if n_elements == 0 {
            return bad("element universe is empty".into());
        }
        let source = match self.source {
            Some(s) => s,
            None => return bad("no source node declared".into()),
        };
        if self.tiers.is_empty() {
            return bad("at least one tier besides the source is required".into());
        }

        let mut names = vec![source];
        let mut budgets = vec![0.0f64];
        let mut poll_costs = vec![0.0f64];
        for (name, budget, poll_cost) in self.tiers {
            names.push(name);
            budgets.push(budget);
            poll_costs.push(poll_cost);
        }
        for (n, name) in names.iter().enumerate() {
            if name.is_empty() {
                return bad("node names must be non-empty".into());
            }
            if names[..n].contains(name) {
                return bad(format!("duplicate node name `{name}`"));
            }
        }
        for n in 1..names.len() {
            if !budgets[n].is_finite() || budgets[n] <= 0.0 {
                return bad(format!(
                    "budget for tier `{}` must be positive and finite, got {}",
                    names[n], budgets[n]
                ));
            }
            if !poll_costs[n].is_finite() || poll_costs[n] < 0.0 {
                return bad(format!(
                    "poll cost for tier `{}` must be non-negative and finite, got {}",
                    names[n], poll_costs[n]
                ));
            }
        }

        let mut links = Vec::with_capacity(self.links.len());
        for (from_name, to_name, elements) in self.links {
            let from = match names.iter().position(|n| *n == from_name) {
                Some(ix) => ix,
                None => return bad(format!("link endpoint `{from_name}` is not a node")),
            };
            let to = match names.iter().position(|n| *n == to_name) {
                Some(ix) => ix,
                None => return bad(format!("link endpoint `{to_name}` is not a node")),
            };
            if from == to {
                return bad(format!("self-loop on `{from_name}`"));
            }
            if to == 0 {
                return bad("the source never polls: no links may enter it".into());
            }
            if links.iter().any(|l: &Link| l.from == from && l.to == to) {
                return bad(format!("duplicate link `{from_name}`→`{to_name}`"));
            }
            let elements = match elements {
                None => None,
                Some(mut subset) => {
                    if subset.is_empty() {
                        return bad(format!(
                            "link `{from_name}`→`{to_name}` carries an empty element set"
                        ));
                    }
                    subset.sort_unstable();
                    subset.dedup();
                    if let Some(&out_of_range) = subset.iter().find(|&&i| i >= n_elements) {
                        return bad(format!(
                            "link `{from_name}`→`{to_name}` names element {out_of_range} \
                             but the problem has {n_elements}"
                        ));
                    }
                    Some(subset)
                }
            };
            links.push(Link { from, to, elements });
        }

        let node_count = names.len();
        let mut incoming = vec![Vec::new(); node_count];
        let mut outgoing = vec![Vec::new(); node_count];
        for (l, link) in links.iter().enumerate() {
            incoming[link.to].push(l);
            outgoing[link.from].push(l);
        }
        for n in 1..node_count {
            if incoming[n].is_empty() {
                return bad(format!("tier `{}` has no incoming link (orphan)", names[n]));
            }
        }

        // Kahn's algorithm: a complete order proves acyclicity, and —
        // since every non-source node has an incoming link — also
        // reachability from the source.
        let mut indegree: Vec<usize> = incoming.iter().map(Vec::len).collect();
        let mut queue = vec![0usize];
        let mut order = Vec::with_capacity(node_count);
        while let Some(node) = queue.pop() {
            order.push(node);
            for &l in &outgoing[node] {
                let to = links[l].to;
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    queue.push(to);
                }
            }
        }
        if order.len() != node_count {
            let stuck: Vec<&str> = (0..node_count)
                .filter(|&n| indegree[n] > 0)
                .map(|n| names[n].as_str())
                .collect();
            return bad(format!("cycle through {{{}}}", stuck.join(", ")));
        }

        // A link may only carry elements its upstream can actually
        // serve: propagate mirrored sets in topological order.
        let mut mirrored = vec![vec![false; n_elements]; node_count];
        mirrored[0] = vec![true; n_elements];
        for &node in &order {
            if node == 0 {
                continue;
            }
            for &l in &incoming[node] {
                let link = &links[l];
                match &link.elements {
                    None => {
                        if let Some(i) = mirrored[link.from][..n_elements].iter().position(|&m| !m)
                        {
                            return bad(format!(
                                "link `{}`→`{}` carries element {i} which `{}` \
                                 does not mirror",
                                names[link.from], names[link.to], names[link.from]
                            ));
                        }
                    }
                    Some(subset) => {
                        for &i in subset {
                            if !mirrored[link.from][i] {
                                return bad(format!(
                                    "link `{}`→`{}` carries element {i} which `{}` \
                                     does not mirror",
                                    names[link.from], names[link.to], names[link.from]
                                ));
                            }
                        }
                    }
                }
                match &link.elements {
                    None => mirrored[node].iter_mut().for_each(|m| *m = true),
                    Some(subset) => {
                        for &i in subset {
                            mirrored[node][i] = true;
                        }
                    }
                }
            }
        }

        let sinks: Vec<usize> = (0..node_count)
            .filter(|&n| outgoing[n].is_empty())
            .collect();
        debug_assert!(!sinks.is_empty(), "a finite DAG always has a sink");

        Ok(Topology {
            names,
            budgets,
            poll_costs,
            links,
            incoming,
            outgoing,
            order,
            sinks,
            n_elements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshness::steady_state_freshness;

    fn chain(relay_budget: f64, edge_budget: f64, n: usize) -> Topology {
        Topology::builder()
            .source("origin")
            .tier("relay", relay_budget)
            .tier("edge", edge_budget)
            .link("origin", "relay")
            .link("relay", "edge")
            .build(n)
            .unwrap()
    }

    fn toy_problem(n: usize) -> Problem {
        Problem::builder()
            .change_rates((0..n).map(|i| 1.0 + i as f64).collect())
            .access_weights(vec![1.0; n])
            .bandwidth(4.0)
            .build()
            .unwrap()
    }

    #[test]
    fn chain_structure_is_validated() {
        let topo = chain(4.0, 2.0, 3);
        assert_eq!(topo.node_count(), 3);
        assert_eq!(topo.sinks(), &[2]);
        assert_eq!(topo.order()[0], 0);
        assert!(topo.is_tree());
        assert_eq!(topo.incoming(2), &[1]);
        assert_eq!(topo.budgets(), &[0.0, 4.0, 2.0]);
    }

    #[test]
    fn cycles_are_rejected() {
        let err = Topology::builder()
            .source("s")
            .tier("a", 1.0)
            .tier("b", 1.0)
            .link("s", "a")
            .link("a", "b")
            .link("b", "a")
            .build(2)
            .unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn orphans_and_dangling_endpoints_are_rejected() {
        let orphan = Topology::builder()
            .source("s")
            .tier("a", 1.0)
            .tier("lost", 1.0)
            .link("s", "a")
            .build(2)
            .unwrap_err();
        assert!(orphan.to_string().contains("orphan"), "{orphan}");

        let dangling = Topology::builder()
            .source("s")
            .tier("a", 1.0)
            .link("s", "ghost")
            .build(2)
            .unwrap_err();
        assert!(dangling.to_string().contains("ghost"), "{dangling}");
    }

    #[test]
    fn budget_and_name_validation() {
        for bad_budget in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(Topology::builder()
                .source("s")
                .tier("a", bad_budget)
                .link("s", "a")
                .build(2)
                .is_err());
        }
        let dup = Topology::builder()
            .source("s")
            .tier("s", 1.0)
            .link("s", "s")
            .build(1)
            .unwrap_err();
        assert!(dup.to_string().contains("duplicate node name"), "{dup}");
        let into_source = Topology::builder()
            .source("s")
            .tier("a", 1.0)
            .link("s", "a")
            .link("a", "s")
            .build(1)
            .unwrap_err();
        assert!(into_source.to_string().contains("source"), "{into_source}");
    }

    #[test]
    fn subset_must_be_mirrored_upstream() {
        // The relay only mirrors {0}; the edge asking it for {0, 1}
        // is a spec inconsistency.
        let err = Topology::builder()
            .source("s")
            .tier("relay", 2.0)
            .tier("edge", 1.0)
            .link_subset("s", "relay", vec![0])
            .link_subset("relay", "edge", vec![0, 1])
            .build(2)
            .unwrap_err();
        assert!(err.to_string().contains("does not mirror"), "{err}");

        let out_of_range = Topology::builder()
            .source("s")
            .tier("a", 1.0)
            .link_subset("s", "a", vec![7])
            .build(3)
            .unwrap_err();
        assert!(
            out_of_range.to_string().contains("element 7"),
            "{out_of_range}"
        );
    }

    #[test]
    fn single_hop_freshness_is_the_policy_law() {
        let n = 3;
        let problem = toy_problem(n);
        let topo = Topology::builder()
            .source("s")
            .tier("edge", 4.0)
            .link("s", "edge")
            .build(n)
            .unwrap();
        let mut schedule = TieredSchedule::zero(&topo);
        schedule.link_freqs[0] = vec![1.0, 2.0, 0.5];
        for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
            let fresh = topo.node_freshness(&problem, &schedule, policy).unwrap();
            for (i, &got) in fresh[1].iter().enumerate() {
                let expect = policy.freshness(problem.change_rates()[i], schedule.link_freqs[0][i]);
                assert!((got - expect).abs() < 1e-15, "{policy:?} {i}");
            }
        }
    }

    #[test]
    fn two_hop_freshness_is_the_product_of_hop_factors() {
        let n = 4;
        let problem = toy_problem(n);
        let topo = chain(4.0, 2.0, n);
        let mut schedule = TieredSchedule::zero(&topo);
        schedule.link_freqs[0] = vec![2.0, 1.0, 0.5, 3.0];
        schedule.link_freqs[1] = vec![1.0, 0.25, 2.0, 0.125];
        let fresh = topo
            .node_freshness(&problem, &schedule, SyncPolicy::FixedOrder)
            .unwrap();
        for (i, &got) in fresh[2].iter().enumerate() {
            let lam = problem.change_rates()[i];
            let expect = steady_state_freshness(lam, schedule.link_freqs[0][i])
                * steady_state_freshness(lam, schedule.link_freqs[1][i]);
            assert!(
                (got - expect).abs() < 1e-15,
                "element {i}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn parallel_relays_compose_by_inclusion_exclusion() {
        let n = 2;
        let problem = toy_problem(n);
        let topo = Topology::builder()
            .source("s")
            .tier("r1", 2.0)
            .tier("r2", 2.0)
            .tier("edge", 2.0)
            .link("s", "r1")
            .link("s", "r2")
            .link("r1", "edge")
            .link("r2", "edge")
            .build(n)
            .unwrap();
        assert!(!topo.is_tree());
        let mut schedule = TieredSchedule::zero(&topo);
        schedule.link_freqs[0] = vec![2.0, 1.0];
        schedule.link_freqs[1] = vec![0.5, 2.0];
        schedule.link_freqs[2] = vec![1.0, 1.0];
        schedule.link_freqs[3] = vec![1.0, 0.5];
        let policy = SyncPolicy::Poisson;
        let fresh = topo.node_freshness(&problem, &schedule, policy).unwrap();
        for (i, &got) in fresh[3].iter().enumerate() {
            let lam = problem.change_rates()[i];
            let via1 = policy.freshness(lam, schedule.link_freqs[0][i])
                * policy.freshness(lam, schedule.link_freqs[2][i]);
            let via2 = policy.freshness(lam, schedule.link_freqs[1][i])
                * policy.freshness(lam, schedule.link_freqs[3][i]);
            let expect = 1.0 - (1.0 - via1) * (1.0 - via2);
            assert!((got - expect).abs() < 1e-15, "element {i}");
        }
    }

    #[test]
    fn uncarried_elements_score_zero_at_the_edge() {
        let n = 3;
        let problem = toy_problem(n);
        let topo = Topology::builder()
            .source("s")
            .tier("edge", 2.0)
            .link_subset("s", "edge", vec![0, 2])
            .build(n)
            .unwrap();
        let mut schedule = TieredSchedule::zero(&topo);
        schedule.link_freqs[0] = vec![1.0, 0.0, 1.0];
        let fresh = topo
            .node_freshness(&problem, &schedule, SyncPolicy::FixedOrder)
            .unwrap();
        assert!(fresh[1][0] > 0.0 && fresh[1][2] > 0.0);
        assert_eq!(fresh[1][1], 0.0);
        // Scheduling a frequency on the uncarried element is rejected.
        schedule.link_freqs[0][1] = 0.5;
        assert!(schedule.validate(&topo).is_err());
    }

    #[test]
    fn spend_and_budget_checks() {
        let n = 2;
        let problem = Problem::builder()
            .change_rates(vec![1.0, 2.0])
            .access_weights(vec![1.0, 1.0])
            .sizes(vec![1.0, 3.0])
            .bandwidth(4.0)
            .build()
            .unwrap();
        let topo = chain(4.0, 2.0, n);
        let mut schedule = TieredSchedule::zero(&topo);
        schedule.link_freqs[0] = vec![1.0, 1.0]; // relay spend: 1 + 3 = 4
        schedule.link_freqs[1] = vec![2.0, 0.0]; // edge spend: 2
        let spend = topo.node_spend(&problem, &schedule).unwrap();
        assert_eq!(spend, vec![0.0, 4.0, 2.0]);
        assert!(topo.check_budgets(&problem, &schedule, 1e-9).is_ok());
        schedule.link_freqs[1][0] = 2.5;
        assert!(topo.check_budgets(&problem, &schedule, 1e-9).is_err());
    }

    #[test]
    fn spec_round_trips() {
        let topo = Topology::builder()
            .source("origin")
            .tier("relay", 120.0)
            .tier_with_cost("edge", 60.0, 2.0)
            .link("origin", "relay")
            .link_subset("relay", "edge", vec![0, 1])
            .build(3)
            .unwrap();
        let json = topo.to_spec_json();
        let parsed = Topology::from_spec_str(&json, 3).unwrap();
        assert_eq!(parsed, topo);
    }

    #[test]
    fn spec_errors_are_named() {
        for (why, doc) in [
            ("missing nodes", r#"{"links": []}"#),
            ("missing links", r#"{"nodes": []}"#),
            (
                "missing budget",
                r#"{"nodes": [{"id": "s", "role": "source"}, {"id": "a"}],
                    "links": [{"from": "s", "to": "a"}]}"#,
            ),
        ] {
            assert!(Topology::from_spec_str(doc, 2).is_err(), "{why}");
        }
    }

    #[test]
    fn problem_from_json_round_trip() {
        let doc = Json::parse(
            r#"{"change_rates": [1.0, 2.0], "access_probs": [0.5, 0.5],
                "sizes": [1.0, 2.0], "bandwidth": 3.0}"#,
        )
        .unwrap();
        let problem = problem_from_json(&doc).unwrap();
        assert_eq!(problem.len(), 2);
        assert_eq!(problem.bandwidth(), 3.0);
        assert_eq!(problem.sizes(), &[1.0, 2.0]);
        assert!(problem_from_json(&Json::parse(r#"{"bandwidth": 1.0}"#).unwrap()).is_err());
    }

    #[test]
    fn edge_pf_averages_over_sinks() {
        let n = 1;
        let problem = Problem::builder()
            .change_rates(vec![1.0])
            .access_probs(vec![1.0])
            .bandwidth(2.0)
            .build()
            .unwrap();
        let topo = Topology::builder()
            .source("s")
            .tier("e1", 1.0)
            .tier("e2", 1.0)
            .link("s", "e1")
            .link("s", "e2")
            .build(n)
            .unwrap();
        assert_eq!(topo.sinks(), &[1, 2]);
        let mut schedule = TieredSchedule::zero(&topo);
        schedule.link_freqs[0] = vec![1.0];
        schedule.link_freqs[1] = vec![2.0];
        let policy = SyncPolicy::FixedOrder;
        let pf = topo.edge_pf(&problem, &schedule, policy).unwrap();
        let expect = 0.5 * (policy.freshness(1.0, 1.0) + policy.freshness(1.0, 2.0));
        assert!((pf - expect).abs() < 1e-15);
    }
}
