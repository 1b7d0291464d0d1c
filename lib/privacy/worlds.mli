(** Pruned possible-world enumeration.

    Semantic twin of {!Worlds_naive} (Definitions 1, 4 and 6) built on a
    backtracking slot search instead of generate-and-test: worlds are
    assignments of a candidate row (or absence) to each input slot, and
    the search materializes a node only when the partial assignment can
    still extend to a world — per-slot candidates are pre-filtered
    against the visible projection and fixed public functionality, view
    tuples are checked against their last producing slot, and per-module
    functional dependencies are maintained incrementally. Every leaf is
    a world, so [fold]/[exists]/[count] variants run without building
    world lists and stop early.

    A relation over a module schema satisfying [I -> O] is exactly a
    partial function from input assignments to output assignments, so
    standalone worlds are searched slot-by-slot over the input domain.
    Workflow worlds come in two flavours:

    - {e tuple-level} worlds ({!workflow_worlds_tuples}): partial
      functions from initial-input assignments to full tuples, filtered
      by the per-module functional dependencies and the view — the
      literal Definition 4/6 semantics.
    - {e function-family} worlds ({!workflow_worlds_functions}): every
      substitution of the private modules by arbitrary total functions
      whose induced provenance relation agrees with the view — exactly
      the worlds built in the proof of Lemma 1. When every public
      module is total these are searched as the relations with one row
      per initial input; with a partial public module the search falls
      back to {!Worlds_naive}.

    The property tests assert agreement with {!Worlds_naive} on random
    instances; the enumerators here preserve its result order.

    Every enumerator takes an optional [metrics] registry (default
    {!Svutil.Metrics.nop}) receiving [worlds.enumerated] (leaves
    visited, i.e. worlds actually produced before any early stop) and
    [worlds.pruned] (branches rejected before recursing). The
    {!Worlds_naive} fallback paths report nothing. *)

val default_max : int
(** Default [max_worlds] bound, [2_000_000]. *)

val pow_int : int -> int -> int
(** Overflow-checked power, saturating at [max_int] (see
    {!Worlds_naive.pow_int}). *)

(** {1 Standalone worlds (Definition 1)} *)

val standalone_worlds :
  ?max_worlds:int ->
  ?metrics:Svutil.Metrics.t ->
  Wf.Wmodule.t ->
  visible:string list ->
  Rel.Relation.t list
(** All members of [Worlds(R, V)] for a standalone module (Definition 1).
    [max_worlds] (default 2_000_000) bounds the candidate count
    [(|Range|+1)^|Dom|]; @raise Invalid_argument beyond it. *)

val fold_standalone_worlds :
  ?max_worlds:int ->
  ?metrics:Svutil.Metrics.t ->
  Wf.Wmodule.t ->
  visible:string list ->
  init:'a ->
  f:('a -> Rel.Relation.t -> 'a) ->
  'a
(** Fold over the worlds in enumeration order without building the
    list. *)

val count_standalone_worlds :
  ?max_worlds:int ->
  ?metrics:Svutil.Metrics.t ->
  Wf.Wmodule.t ->
  visible:string list ->
  int
(** Number of worlds, counted at the leaves of the search — no
    relations are built. *)

val standalone_out_set :
  ?max_worlds:int ->
  ?metrics:Svutil.Metrics.t ->
  Wf.Wmodule.t ->
  visible:string list ->
  input:int array ->
  int array list
(** [OUT_{x,m}] (Definition 2): every output tuple [y] (in module output
    order) such that some world holds [(x, y)]. Each candidate [y] is
    decided by one existence search with the input's slot pinned. *)

(** {1 Workflow worlds (Definitions 4/5/6, Lemma 1)} *)

val workflow_worlds_functions :
  ?max_worlds:int ->
  ?metrics:Svutil.Metrics.t ->
  Wf.Workflow.t ->
  public:string list ->
  visible:string list ->
  Rel.Relation.t list
(** Worlds of a workflow obtained by substituting every non-public
    module by an arbitrary total function of the same type and keeping
    the substitutions whose provenance relation matches the view on [V].
    [public] lists module names whose functionality is pinned
    (Definition 6: privatizing a public module removes it from this
    list). @raise Invalid_argument if the function space exceeds
    [max_worlds] (default 2_000_000). *)

val fold_workflow_worlds_functions :
  ?max_worlds:int ->
  ?metrics:Svutil.Metrics.t ->
  Wf.Workflow.t ->
  public:string list ->
  visible:string list ->
  init:'a ->
  f:('a -> Rel.Relation.t -> 'a) ->
  'a
(** Fold over the function-family worlds without building the list.
    Visiting order is unspecified (use {!workflow_worlds_functions} for
    the sorted list). *)

val exists_workflow_world_functions :
  ?max_worlds:int ->
  ?metrics:Svutil.Metrics.t ->
  Wf.Workflow.t ->
  public:string list ->
  visible:string list ->
  f:(Rel.Relation.t -> bool) ->
  bool
(** Does some function-family world satisfy [f]? Stops at the first
    witness; {!Wprivacy} uses this to find γ-witnesses and refutations
    without enumerating the full world set. *)

val workflow_out_set :
  ?max_worlds:int ->
  ?metrics:Svutil.Metrics.t ->
  Wf.Workflow.t ->
  public:string list ->
  visible:string list ->
  module_name:string ->
  input:int array ->
  int array list
(** [OUT_{x,W}] (Definition 5): outputs the module can take on input [x]
    across the function-family worlds, in module output order. The
    definition is universally quantified, so a world in which [x] never
    occurs makes every output vacuously possible and the result is the
    module's whole range (see DESIGN.md). Stops as soon as the set
    saturates at the module's range. *)

val workflow_worlds_tuples :
  ?max_worlds:int ->
  ?metrics:Svutil.Metrics.t ->
  Wf.Workflow.t ->
  public:string list ->
  visible:string list ->
  Rel.Relation.t list
(** Literal Definition 4/6 enumeration: all relations over the workflow
    schema satisfying every module FD, fixed public functionality, and
    the view. Candidates are [(prod_noninitial |Delta| + 1)^(initial
    domain)]; @raise Invalid_argument beyond [max_worlds] (default
    2_000_000). *)
