//! The run inputs every algorithm body searches over, and the opaque
//! adapter for objectives and checkers that have no dense form.
//!
//! An algorithm body calls [`compile`] once per run and then drives a
//! [`Score`] and a [`Constraints`] over dense `u32` assignments. The model
//! snapshot inside is built once per model version by
//! [`DeploymentModel::compiled`] and shared by every run until the model's
//! next edit; the objective and checker are compiled per run. Both expose
//! the call surface of [`IncrementalScore`] / [`CompiledConstraints`]; when
//! [`Objective::compiled`] or [`ConstraintChecker::compile`] returns `None`
//! the same calls are answered by the trait object on the decoded
//! assignment instead (every scoring a full evaluation, no deltas). The two
//! halves are independent: a custom objective still runs against dense
//! constraints and vice versa. There is one body per algorithm either way.

use redep_model::{
    CompiledConstraints, CompiledModel, CompiledObjective, ComponentId, ConstraintChecker,
    Deployment, DeploymentModel, Direction, HostId, IncrementalScore, Objective, UNASSIGNED,
};
use std::sync::Arc;

/// The inputs of one algorithm run.
#[derive(Debug)]
pub(crate) struct Compiled<'a> {
    /// Dense snapshot of the model, shared with the model's memo.
    pub model: Arc<CompiledModel>,
    /// The objective, dense or opaque.
    pub objective: ObjectiveForm<'a>,
    /// The constraint checker, dense or opaque.
    pub constraints: Constraints<'a>,
}

/// Compiles the run inputs, wrapping whichever half has no dense form in
/// its opaque adapter.
pub(crate) fn compile<'a>(
    model: &'a DeploymentModel,
    objective: &'a dyn Objective,
    constraints: &'a dyn ConstraintChecker,
) -> Compiled<'a> {
    let cm = model.compiled();
    let objective = match objective.compiled() {
        Some(co) => ObjectiveForm::Dense(co),
        None => ObjectiveForm::Opaque {
            source: model,
            objective,
        },
    };
    let constraints = match constraints.compile(model, &cm) {
        Some(cc) => Constraints::Dense(cc),
        None => Constraints::Opaque(OpaqueConstraints {
            source: model,
            checker: constraints,
            host_ids: cm.host_ids().to_vec(),
            comp_ids: cm.comp_ids().to_vec(),
        }),
    };
    Compiled {
        model: cm,
        objective,
        constraints,
    }
}

impl<'a> Compiled<'a> {
    /// A fresh scorer with every component unassigned.
    pub fn scorer(&self) -> Score<'_> {
        match &self.objective {
            ObjectiveForm::Dense(co) => Score::Dense(IncrementalScore::new(&self.model, co)),
            ObjectiveForm::Opaque { source, objective } => Score::Opaque(OpaqueScore {
                model: &self.model,
                source,
                objective: *objective,
                assign: vec![UNASSIGNED; self.model.n_comps()],
                deployment: Deployment::new(),
                value: None,
                priced: Vec::new(),
                full_evals: 0,
            }),
        }
    }

    /// The dense constraints when *both* halves are dense — the precondition
    /// of the hierarchical engine, which projects them onto clusters and
    /// relies on delta pricing. `None` sends an `-h` variant to its flat
    /// body.
    pub fn dense_constraints(&self) -> Option<&CompiledConstraints> {
        match (&self.objective, &self.constraints) {
            (ObjectiveForm::Dense(_), Constraints::Dense(cc)) => Some(cc),
            _ => None,
        }
    }
}

/// The objective half of [`Compiled`].
#[derive(Clone, Debug)]
pub(crate) enum ObjectiveForm<'a> {
    /// The flattened form from [`Objective::compiled`].
    Dense(CompiledObjective),
    /// No dense form: score through the trait object.
    Opaque {
        /// The model the objective evaluates against.
        source: &'a DeploymentModel,
        /// The objective itself.
        objective: &'a dyn Objective,
    },
}

impl ObjectiveForm<'_> {
    /// Whether the score is maximized or minimized.
    pub fn direction(&self) -> Direction {
        match self {
            ObjectiveForm::Dense(co) => co.direction(),
            ObjectiveForm::Opaque { objective, .. } => objective.direction(),
        }
    }

    /// Returns `true` if `candidate` is strictly better than `incumbent`.
    #[inline]
    pub fn is_improvement(&self, incumbent: f64, candidate: f64) -> bool {
        match self {
            ObjectiveForm::Dense(co) => co.is_improvement(incumbent, candidate),
            ObjectiveForm::Opaque { objective, .. } => {
                objective.is_improvement(incumbent, candidate)
            }
        }
    }

    /// The worst possible score, used to seed search loops.
    pub fn worst(&self) -> f64 {
        match self {
            ObjectiveForm::Dense(co) => co.worst(),
            ObjectiveForm::Opaque { objective, .. } => objective.worst(),
        }
    }
}

/// A scorer over dense assignments with [`IncrementalScore`]'s call surface.
#[derive(Clone, Debug)]
pub(crate) enum Score<'c> {
    /// Delta scoring on the compiled objective.
    Dense(IncrementalScore<'c>),
    /// Full evaluation through the trait object.
    Opaque(OpaqueScore<'c>),
}

/// [`Score`] for an objective without a dense form: mirrors the dense
/// assignment in a [`Deployment`] and answers every scoring with
/// [`Objective::evaluate`].
#[derive(Clone, Debug)]
pub(crate) struct OpaqueScore<'c> {
    model: &'c CompiledModel,
    source: &'c DeploymentModel,
    objective: &'c dyn Objective,
    assign: Vec<u32>,
    deployment: Deployment,
    /// Score of `deployment`, if it was evaluated since the last change.
    value: Option<f64>,
    /// The candidate hosts of the last `peek`/`peek_many`, for `commit`.
    priced: Vec<u32>,
    full_evals: u64,
}

impl OpaqueScore<'_> {
    fn evaluate(&mut self) -> f64 {
        self.full_evals += 1;
        self.objective.evaluate(self.source, &self.deployment)
    }

    /// Mirrors one dense move into the deployment.
    fn place(&mut self, comp: u32, host: u32) {
        let c = self.model.comp_ids()[comp as usize];
        if host == UNASSIGNED {
            self.deployment.unassign(c);
        } else {
            self.deployment
                .assign(c, self.model.host_ids()[host as usize]);
        }
    }

    fn assign_from(&mut self, assign: &[u32]) -> f64 {
        self.assign.clear();
        self.assign.extend_from_slice(assign);
        self.deployment = self.model.decode_assignment(assign);
        self.value = None;
        self.value()
    }

    fn value(&mut self) -> f64 {
        match self.value {
            Some(v) => v,
            None => {
                let v = self.evaluate();
                self.value = Some(v);
                v
            }
        }
    }

    fn set(&mut self, comp: u32, host: u32) {
        self.assign[comp as usize] = host;
        self.place(comp, host);
        self.value = None;
    }

    /// Tentative move, evaluate, move back.
    fn price(&mut self, comp: u32, host: u32) -> f64 {
        self.place(comp, host);
        let v = self.evaluate();
        self.place(comp, self.assign[comp as usize]);
        v
    }

    fn peek(&mut self, comp: u32, host: u32) -> f64 {
        self.priced.clear();
        self.priced.push(host);
        self.price(comp, host)
    }

    fn peek_many(&mut self, comp: u32, hosts: &[u32], out: &mut Vec<f64>) {
        self.priced.clear();
        self.priced.extend_from_slice(hosts);
        out.clear();
        out.extend(hosts.iter().map(|&h| self.price(comp, h)));
    }

    /// Moves `comp` to candidate `i` of the last pricing; the move is
    /// evaluated when the value is next asked for.
    fn commit(&mut self, comp: u32, i: usize) {
        self.set(comp, self.priced[i]);
    }
}

impl Score<'_> {
    /// The current dense assignment.
    pub fn assignment(&self) -> &[u32] {
        match self {
            Score::Dense(s) => s.assignment(),
            Score::Opaque(o) => &o.assign,
        }
    }

    /// Adopts `assign` and returns its full (pure) score.
    pub fn assign_from(&mut self, assign: &[u32]) -> f64 {
        match self {
            Score::Dense(s) => s.assign_from(assign),
            Score::Opaque(o) => o.assign_from(assign),
        }
    }

    /// The pure score of the current assignment, re-anchoring delta drift
    /// (an opaque score never drifts).
    pub fn score_full(&mut self) -> f64 {
        match self {
            Score::Dense(s) => s.score_full(),
            Score::Opaque(o) => o.value(),
        }
    }

    /// The score of the current assignment as tracked by the moves so far.
    #[inline]
    pub fn value(&mut self) -> f64 {
        match self {
            Score::Dense(s) => s.value(),
            Score::Opaque(o) => o.value(),
        }
    }

    /// Commits moving `comp` to `host` ([`UNASSIGNED`] to unassign).
    #[inline]
    pub fn set(&mut self, comp: u32, host: u32) {
        match self {
            Score::Dense(s) => s.set(comp, host),
            Score::Opaque(o) => o.set(comp, host),
        }
    }

    /// The score after moving `comp` to `host`, without committing the move.
    #[inline]
    pub fn peek(&mut self, comp: u32, host: u32) -> f64 {
        match self {
            Score::Dense(s) => s.peek(comp, host),
            Score::Opaque(o) => o.peek(comp, host),
        }
    }

    /// [`peek`](Self::peek) for every entry of `hosts`, in order, into `out`.
    pub fn peek_many(&mut self, comp: u32, hosts: &[u32], out: &mut Vec<f64>) {
        match self {
            Score::Dense(s) => s.peek_many(comp, hosts, out),
            Score::Opaque(o) => o.peek_many(comp, hosts, out),
        }
    }

    /// Commits candidate `i` of the last [`peek`](Self::peek) (`i = 0`) or
    /// [`peek_many`](Self::peek_many) of `comp`, as
    /// [`IncrementalScore::commit`] does: what [`set`](Self::set) to that
    /// host would leave, without pricing the move again.
    #[inline]
    pub fn commit(&mut self, comp: u32, i: usize) {
        match self {
            Score::Dense(s) => s.commit(comp, i),
            Score::Opaque(o) => o.commit(comp, i),
        }
    }

    /// How many from-scratch evaluations this scorer performed.
    pub fn full_evaluations(&self) -> u64 {
        match self {
            Score::Dense(s) => s.full_evaluations(),
            Score::Opaque(o) => o.full_evals,
        }
    }

    /// How many delta evaluations this scorer performed (`0` when opaque).
    pub fn delta_evaluations(&self) -> u64 {
        match self {
            Score::Dense(s) => s.delta_evaluations(),
            Score::Opaque(_) => 0,
        }
    }
}

/// The constraint half of [`Compiled`], with [`CompiledConstraints`]'s call
/// surface.
#[derive(Debug)]
pub(crate) enum Constraints<'a> {
    /// The dense form from [`ConstraintChecker::compile`].
    Dense(CompiledConstraints),
    /// No dense form: probe the trait object.
    Opaque(OpaqueConstraints<'a>),
}

/// [`Constraints`] for a checker without a dense form: every probe decodes
/// the assignment and asks the trait object.
#[derive(Debug)]
pub(crate) struct OpaqueConstraints<'a> {
    source: &'a DeploymentModel,
    checker: &'a dyn ConstraintChecker,
    /// Host ids in dense-index order.
    host_ids: Vec<HostId>,
    /// Component ids in dense-index order.
    comp_ids: Vec<ComponentId>,
}

impl OpaqueConstraints<'_> {
    fn decode(&self, assign: &[u32]) -> Deployment {
        assign
            .iter()
            .enumerate()
            .filter(|(_, &h)| h != UNASSIGNED)
            .map(|(c, &h)| (self.comp_ids[c], self.host_ids[h as usize]))
            .collect()
    }

    fn check(&self, assign: &[u32]) -> bool {
        self.checker
            .check(self.source, &self.decode(assign))
            .is_ok()
    }

    fn admits(&self, assign: &[u32], comp: u32, host: u32) -> bool {
        self.checker.admits(
            self.source,
            &self.decode(assign),
            self.comp_ids[comp as usize],
            self.host_ids[host as usize],
        )
    }
}

impl Constraints<'_> {
    /// Checks a complete assignment.
    pub fn check(&self, assign: &[u32]) -> bool {
        match self {
            Constraints::Dense(cc) => cc.check(assign),
            Constraints::Opaque(o) => o.check(assign),
        }
    }

    /// May `comp` be placed on `host` given the (possibly partial)
    /// assignment built so far? Callers lift `comp` out first when pricing a
    /// relocation.
    #[inline]
    pub fn admits(&self, assign: &[u32], comp: u32, host: u32) -> bool {
        match self {
            Constraints::Dense(cc) => cc.admits(assign, comp, host),
            Constraints::Opaque(o) => o.admits(assign, comp, host),
        }
    }

    /// Per-host memory load for [`admits_with_load`](Self::admits_with_load).
    /// An opaque checker keeps no load model; it gets a zeroed vector the
    /// callers can maintain harmlessly.
    pub fn load_of(&self, assign: &[u32]) -> Vec<f64> {
        match self {
            Constraints::Dense(cc) => cc.load_of(assign),
            Constraints::Opaque(o) => vec![0.0; o.host_ids.len()],
        }
    }

    /// [`CompiledConstraints::refuses_at_least`]; an opaque checker keeps
    /// no load model and never refuses in advance.
    #[inline]
    pub fn refuses_at_least(&self, load: &[f64], host: u32, memory: f64) -> bool {
        match self {
            Constraints::Dense(cc) => cc.refuses_at_least(load, host, memory),
            Constraints::Opaque(_) => false,
        }
    }

    /// Appends to `out`, in order, each of `hosts` that
    /// [`admits_with_load`](Self::admits_with_load) admits `comp` on.
    #[inline]
    pub fn admitted(
        &self,
        assign: &[u32],
        load: &[f64],
        comp: u32,
        hosts: impl Iterator<Item = u32>,
        out: &mut Vec<u32>,
    ) {
        match self {
            Constraints::Dense(cc) => cc.admitted(assign, load, comp, hosts, out),
            Constraints::Opaque(o) => out.extend(hosts.filter(|&h| o.admits(assign, comp, h))),
        }
    }

    /// [`admits`](Self::admits) with the dense memory scan replaced by the
    /// caller-maintained load vector. The opaque form ignores `load`.
    #[inline]
    pub fn admits_with_load(&self, assign: &[u32], load: &[f64], comp: u32, host: u32) -> bool {
        match self {
            Constraints::Dense(cc) => cc.admits_with_load(assign, load, comp, host),
            Constraints::Opaque(o) => o.admits(assign, comp, host),
        }
    }
}
