(** Static privacy-flow verdicts: sound per-attribute decisions and
    cost bounds read off the requirement lists, with no possible-world
    enumeration and no LP.

    The two verdict kinds are exactly the ones whose variable fixings
    provably preserve the IP optimum (DESIGN.md section 12):

    - {e must-hide}: every feasible view hides the attribute — either a
      set-constraint module lists it in every hidden-set option, or a
      cardinality module's satisfiable pairs all demand the full side
      it belongs to. Fixing [x_a = 1] removes no feasible point.
    - {e may-expose}: no requirement references the attribute, so any
      feasible solution stays feasible (and no costlier) after exposing
      it. Fixing [x_a = 0] keeps an optimal point.

    Verdicts come with machine-checkable justifications; {!check}
    re-validates a reported analysis against the instance from scratch,
    and the test suite additionally cross-checks the verdicts against
    the brute-force oracle. {!Analysis.Flow} layers the workflow-level
    reachability lattice and per-module Gamma bounds on top. *)

type side = Inputs | Outputs

type justification =
  | In_every_option of { m_name : string; options : int }
      (** the attribute occurs in each of the module's [options]
          hidden-set options *)
  | Forced_card of { m_name : string; side : side; pairs : int }
      (** each of the module's [pairs] satisfiable cardinality pairs
          demands the full [side] hidden *)
  | Unreferenced  (** no requirement mentions the attribute *)

type kind = Must_hide | May_expose

type verdict = { attr : string; kind : kind; why : justification }

type t = {
  verdicts : verdict list;  (** decided attributes, in instance order *)
  undecided : string list;  (** referenced but not forced either way *)
  infeasible_module : string option;
      (** a module with no satisfiable option: the instance has no
          feasible solution and {!fixings} reports nothing *)
  lower_cost : Rat.t;
      (** price of the must-hide set plus the privatizations it already
          forces — a lower bound on every feasible solution's cost *)
  upper_cost : Rat.t option;
      (** price of hiding every referenced attribute — an upper bound
          on the optimum; [None] iff the instance is infeasible *)
}

val analyze : ?metrics:Svutil.Metrics.t -> Instance.t -> t
(** Linear in the total requirement size. Records [flow.must_hide],
    [flow.may_expose], [flow.undecided] counters and ticks
    [flow.infeasible] when a module has no satisfiable option. *)

val must_hide : t -> string list
val may_expose : t -> string list

val fixings : t -> (string * Rat.t) list
(** The verdicts as optimum-preserving variable fixings: must-hide
    attributes at 1, may-expose at 0. Empty when the instance is
    infeasible (the fixings would be vacuous). *)

val check : Instance.t -> t -> (unit, string) result
(** Independently re-validate every justification, the verdict /
    undecided partition, the infeasibility report and both bounds.
    [Error] carries the first violated claim. *)

val side_to_string : side -> string
val kind_to_string : kind -> string
val justification_to_string : justification -> string
