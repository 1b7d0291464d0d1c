(** The canonical-form solution cache behind the serve loop.

    Entries are keyed on the canonical form itself
    ({!Core.Canon.form_of_labeling}; rename-invariant, so a bijectively
    renamed resubmission of a solved workflow keys to the same slot) and
    stored in a bounded LRU ({!Svutil.Lru}). The key is the string the
    stored labeling already holds, so keying adds nothing to an entry. A
    lookup is sound by construction, never by trust:

    + compute the request instance's {!Core.Canon.labeling} (one
      refinement pass per request; the [store] after a miss reuses it);
    + a key match is form equality, which exhibits an explicit
      isomorphism: {!Core.Canon.transport} carries the stored
      representative's solution into the request's own attribute and
      public-module names;
    + the transported solution is re-verified on the request instance —
      a {!Core.Solution.of_hidden} re-closure must be feasible with the
      same cost (the same check {!Core.Delta}'s no-op tier runs). Any
      failure falls back to a solve.

    Two isomorphic instances whose color ties are broken differently by
    name have different forms ({!Core.Canon} completeness caveat); they
    occupy separate entries and each hits its own.

    Only {e proven} results are stored: optimal solutions
    ([proven_optimal]) and proven infeasibility (no solution, no budget
    hit, from a method that proves rather than approximates). And only
    proving requests participate at all: {!cacheable} is false for the
    greedy/rounding methods, whose results depend on seeds and trial
    counts — serving those from a cache would not be a no-drift
    transformation.

    Counters [serve.{hits,misses,evictions,verify_failures}] are
    recorded in the registry passed at {!create}. Not thread-safe; the
    single-threaded serve loop owns its cache. *)

type t

val create : ?metrics:Svutil.Metrics.t -> capacity:int -> unit -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int
val length : t -> int
val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Entries dropped by capacity pressure. *)

val cacheable : Core.Engine.request -> bool
(** Whether this request participates in the cache at all: true for
    [Auto], [Exact] and [Brute] — the methods whose answers are
    canonical (optimum or proven-infeasible), not seed-dependent. *)

val find : t -> Core.Engine.request -> Core.Engine.result option
(** The verified lookup described above. [Some r] carries the
    transported solution, [proven_optimal = true] (or the stored
    infeasibility), the stored lower bound, and a fresh
    [solved_state] for the request instance. [None] on any miss or
    verification failure. Does not check {!cacheable} —
    callers gate on it first. *)

val store : t -> Core.Engine.request -> Core.Engine.result -> unit
(** Store a result if it is proven (see above); otherwise a no-op.
    Does not check {!cacheable} — callers gate on it first. *)
