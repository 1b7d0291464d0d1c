(** Canonical forms of Secure-View instances.

    The metamorphic test suite shows that renaming attributes (and
    modules) preserves optima; this module turns that fact into a usable
    key. A colour-refinement pass (1-WL, over the attribute / module /
    public incidence structure) assigns every node an int colour that
    depends only on costs, requirement shapes and wiring — never on
    names. Round 0 ranks the name-free payloads; each round then ranks
    every node's signature (its kind, its own colour and its
    neighbours' sorted colours), so a colour is the rank of a
    signature, comparable across instances. Refinement stops when the
    number of colours stops growing, after at most nodes + 1 rounds.
    Attributes are then relabeled in (colour, name) order, and {!form}
    serializes the relabeled instance. Equal forms exhibit an explicit
    attribute bijection making the instances textually identical, so
    [form] equality {e proves} isomorphism (and hence equal optima).
    The form itself is the serve cache's key ([Serve.Cache]) and
    [Core.Delta]'s no-op test. No digest stands in for it, so a key
    match is itself the isomorphism proof and no key collision needs
    handling.

    Completeness caveat: when the refinement leaves symmetric-looking
    attributes in one colour class, the relabeling breaks ties by
    original name, so two isomorphic instances can (rarely) have
    different forms. That only costs a missed equality — never a false
    one: the serve cache keeps such tied isomorphs as separate
    entries. *)

val form : Instance.t -> string
(** Canonical serialization. [form a = form b] implies [a] and [b] are
    isomorphic (equal optimal cost); the converse can fail on color
    ties. *)

(** {1 Solution transport}

    When two instances have equal forms, the canonical relabeling of
    each exhibits an explicit isomorphism between them; composing one
    relabeling with the inverse of the other carries a solution of one
    instance to a solution of the other with identical cost. The serve
    cache stores a solved representative's {!labeling} and transports
    its solution to each later isomorphic request. *)

type labeling
(** The canonical relabeling of one instance: its {!form} plus the
    attribute bijection (name {%html:&harr;%} canonical label) and the
    canonical ordering of its public modules. *)

val labeling : Instance.t -> labeling

val form_of_labeling : labeling -> string
(** The {!form} the labeling serializes to — same string as
    [form inst], with the refinement paid only once. The serve cache
    keys on it directly. *)

val classes : labeling -> string list list
(** The attributes' stable colour classes in canonical order, each
    class in name order: the partition the relabeling breaks ties
    within. For tests and diagnostics; the cache never reads it. *)

val transport : src:labeling -> dst:labeling -> Solution.t -> Solution.t option
(** [transport ~src ~dst s] maps a solution of [src]'s instance to the
    corresponding solution of [dst]'s instance through the canonical
    isomorphism. [None] when the forms differ (no isomorphism
    exhibited) or [s] references names outside [src]'s instance. The
    result has the same cost; on equal forms it is feasible iff [s]
    is — callers re-verify cheaply via {!Solution.of_hidden}
    re-closure. *)

val fingerprint : Instance.t -> string
(** A cheap necessary condition for isomorphism: sorted name-free
    summaries (attribute costs, module arities and requirement shapes,
    public costs) with no refinement or hashing. Isomorphic instances
    always agree; unequal fingerprints refute isomorphism in
    [O(n log n)]. {!Delta.resolve} checks it before paying for {!form},
    so the common obviously-changed edit skips the refinement. *)
