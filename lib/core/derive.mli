(** Deriving requirement lists from module functionality.

    Section 3.2 notes that the (exponential) standalone analysis of a
    module is amortized across the many workflows that reuse it; this
    module is that analysis. It produces the per-module requirement
    lists consumed by the workflow Secure-View solvers.

    Cardinality lists are {e sound under-approximations}: Example 6 says
    hiding {e any} k inputs of a one-one module is safe, but such a
    module can also have asymmetric safe sets (e.g. one input plus a
    different position's output) that no (alpha, beta) pair captures.
    {!sound_cardinality} computes the uniformly-safe profiles;
    {!exact_cardinality} additionally checks that nothing is lost.

    Every function here reads one {!Privacy.Standalone.Table} of the
    module: the safety of all [2^k] hidden subsets, decided with one
    standalone check per subset that contains no smaller safe subset.
    Proposition 1 (safety is upward closed in the hidden set) makes
    that table equal to checking every subset, so the results are those
    of the per-subset definitions; {!requirement} builds the table
    once and reads the profiles, the exactness test and the minimal
    sets off it. *)

val sets_requirement : Wf.Wmodule.t -> gamma:int -> Requirement.sets
(** The minimal safe hidden subsets (an antichain, per Proposition 1),
    split into (input, output) parts. Exact by construction. *)

val sound_cardinality : Wf.Wmodule.t -> gamma:int -> Requirement.cardinality
(** The minimal pairs [(alpha, beta)] such that hiding {e every} choice
    of [alpha] inputs and [beta] outputs is safe — the encoding the
    paper's cardinality variant takes as input (Section 4.2). May be
    empty, and may under-approximate the safe sets. *)

val exact_cardinality : Wf.Wmodule.t -> gamma:int -> Requirement.cardinality option
(** [Some list] iff {!sound_cardinality} captures standalone safety
    exactly (satisfying the list is equivalent to safety for every
    hidden subset). *)

val requirement : Wf.Wmodule.t -> gamma:int -> Requirement.t
(** The compact cardinality form when it is exact and non-empty
    (one-one and majority modules of Example 6), the set form
    otherwise. *)

val of_table : Privacy.Standalone.Table.t -> Requirement.t
(** {!requirement} of the table's module, for callers that already
    built the table (e.g. to also list its minimal hidden sets). *)
