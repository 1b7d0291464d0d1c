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

(** {1 Deriving each distinct module once}

    Standalone privacy depends on a module's relation and [gamma] alone
    (Section 3), so two modules with the same content have the same
    {!Privacy.Standalone.Table}, whatever the workflow around them and
    whatever their attribute names. Requests repeat modules: a serve
    stream resubmits specs, often under new names, and the lint flow
    stage and the solve path derive the same spec twice. [Memo] keeps
    recent tables by content so each distinct module is derived once.
    {!Instance.of_workflow} derives through it; the functions above stay
    uncached. *)

module Memo : sig
  val capacity : int
  (** Entries per domain: 256, least recently used evicted first. *)

  val max_entry_bytes : int
  (** 32 KiB. A module whose key plus [2^k] status bytes exceed it is
      derived uncached and not stored (a [skipped] lookup). *)

  val requirement : Wf.Wmodule.t -> gamma:int -> Requirement.t
  (** Equal to {!requirement}, list order included. The key is
      {!Privacy.Standalone.Table.key}: the exact content bytes, never a
      hash, so no two modules can share an entry unless they share a
      table. An entry holds only the name-free part of the table (its
      decisions and check count) and {!exact_cardinality}'s result. On
      a hit the decisions are re-bound to the asking module and the
      name-dependent tail reruns: the minimal hidden sets are listed
      under the module's own names and split by its inputs, so their
      order is the one a fresh derivation gives (a finished requirement
      reused by attribute position would not be: list order follows
      the names). The memo is local to the calling domain, so
      {!Svutil.Par} workers never share one.
      @raise Invalid_argument beyond 25 attributes, as {!requirement}. *)

  type stats = { hits : int; misses : int; evictions : int; skipped : int; size : int }

  val stats : unit -> stats
  (** Counts of the calling domain's memo since start or {!clear};
      [size] is the number of entries held. *)

  val clear : unit -> unit
  (** Empty the calling domain's memo and zero its counts. *)
end
