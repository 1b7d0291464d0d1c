(** Secure-View problem instances (Sections 4.2 and 5.2).

    An instance records the attributes with their hiding costs, one
    requirement list per private module, and — for general workflows —
    the public modules with their privatization costs and adjacent
    attributes. All-private workflows simply have an empty public list. *)

type module_req = {
  m_name : string;
  inputs : string list;
  outputs : string list;
  req : Requirement.t;
}

type public_mod = { p_name : string; p_cost : Rat.t; p_attrs : string list }

type t = private {
  attr_costs : (string * Rat.t) list;
  mods : module_req list;
  publics : public_mod list;
}

val make :
  attr_costs:(string * Rat.t) list ->
  mods:module_req list ->
  ?publics:public_mod list ->
  unit ->
  t
(** @raise Invalid_argument if a module or public references an unknown
    attribute, costs are negative, or names collide. *)

val of_workflow :
  Wf.Workflow.t ->
  gamma:int ->
  ?gamma_overrides:(string * int) list ->
  cost:(string -> Rat.t) ->
  ?publics:(string * Rat.t) list ->
  unit ->
  t
(** Derive requirement lists from the module tables for every module
    not listed in [publics]; public modules contribute privatization
    costs instead. [gamma_overrides] assigns individual privacy
    requirements to named modules (the paper's remark after
    Definition 5: different modules may have different [Gamma_i]).

    Each requirement comes from {!Derive.Memo.requirement}, so a module
    whose content (relation, domains and [Gamma]) was derived recently
    in this domain is not derived again, even under other names or in
    another workflow. The answer equals a fresh {!Derive.requirement}
    per module, list order included, because the name-dependent part
    of the derivation reruns on every hit. *)

val attrs : t -> string list
val attr_cost : t -> string -> Rat.t
val lmax : t -> int
(** Longest requirement list over the modules ([l_max]). *)

val n_modules : t -> int

val required_privatizations : t -> hidden:string list -> string list
(** Public modules with a hidden adjacent attribute — they must be
    privatized for the solution to be safe (Theorem 8). *)

val feasible : t -> hidden:string list -> privatized:string list -> bool
(** Every module requirement satisfied and every exposed public module
    privatized. *)

val cost : t -> hidden:string list -> privatized:string list -> Rat.t

val to_sets : t -> t
(** Convert every cardinality requirement into the equivalent explicit
    set requirement (for the set-constraint solvers). *)

val pp : Format.formatter -> t -> unit
