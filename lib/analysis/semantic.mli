(** The semantic lint tier ([kpt lint --semantic]): KPT1xx passes that
    run the verification engine itself — reachability fixpoints (eqs.
    3-5), the Ĝ-iteration (eq. 25) and [wcyl] (eq. 6) — under a small
    deterministic budget, so the linter sees what no syntactic pass can.

    Codes (catalogued with equation provenance in DESIGN.md):
    - [KPT100] (info): semantic passes skipped — analysis budget
      exhausted, or the Ĝ-iteration cycles;
    - [KPT101] (warning): statement never enabled in any reachable state
      (guard ∧ SI ≡ false, guard satisfiable on the domain);
    - [KPT102] (warning): guard unsatisfiable on the whole domain;
    - [KPT103] (error): unsatisfiable initial condition (emitted by the
      {!Lint} driver from the elaboration error);
    - [KPT104] (info): reachable states enabling no statement (UNITY
      termination, §5) — info, because protocols legitimately terminate;
    - [KPT105] (info): a single-agent knowledge guard is locally
      implementable; the message carries the concrete local predicate
      over the agent's variables, computed via [wcyl] — the paper's
      Figure 3→4 derivation;
    - [KPT106] (info): a declared property is invariant but not
      inductive; the largest inductive strengthening is suggested.

    Every message renders symbolic counts and declaration-order
    enumerations only, so output is identical across pool sizes and
    reorder modes. *)

open Kpt_predicate
open Kpt_unity
open Kpt_core

val analyse :
  ?file:string -> ?budget:Budget.limits -> Space.t * Kbp.t -> Diagnostic.t list
(** Run every applicable semantic pass on a loaded spec, under [budget]
    (default {!Budget.analysis_default}).  Never raises: budget
    exhaustion degrades to a [KPT100] info, and a spec the solver
    rejects (a non-total assignment, say) to its {!Diagnostic.of_exn}
    [KPT003].  Results are sorted with {!Diagnostic.compare}. *)

val analyse_program : ?file:string -> Program.t -> Diagnostic.t list
(** KPT101/102/104 on a standard program.  Runs under the ambient engine
    budget, if any — arm one (or use {!analyse}) to bound it. *)

val invariant_weakness :
  ?file:string -> ?label:string -> Program.t -> Bdd.t -> (Diagnostic.t * Bdd.t) option
(** [KPT106]: if the property is an invariant but not inductive (not
    stable), return the diagnostic and the largest inductive subset of
    the property — a strengthening candidate that still contains SI.
    [None] when the property is not invariant, or already inductive. *)

val local_guard : Kbp.t -> si:Bdd.t -> Kbp.kstmt -> (string * Bdd.t) option
(** The [KPT105] computation, exposed for tests and the Figure 3→4
    workflow: for a statement whose guard mentions exactly one process
    [i], the weakest vars_i-local predicate
    [ℓ = wcyl.varsᵢ.(SI ⇒ guard)] — returned (with the process name)
    iff it covers the guard within SI ([SI ∧ ℓ ≡ SI ∧ guard]), i.e. iff
    substituting ℓ for the knowledge guard leaves the protocol's
    behaviour unchanged. *)

val render_local : Space.t -> ?care:Bdd.t -> Bdd.t -> string
(** Render a local predicate as a small DNF over its support, in
    variable declaration order (booleans as [v]/[~v], naturals and enums
    as [v = k]).  States outside [care] (default: all) are don't-cares
    used to widen cubes, so the rendered predicate [r] satisfies
    [r ∧ care ≡ pred ∧ care]; capped — very wide predicates render as an
    over-variables note.  Independent of the manager's current bit
    order. *)
