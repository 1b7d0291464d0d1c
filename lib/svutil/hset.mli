(** Imperative hashed sets.

    The privacy enumerators accumulate large sets of tuples (possible
    outputs, view keys, seen worlds); list accumulation with
    [List.exists] membership is O(n^2). This is the O(1)-amortized
    replacement: a thin set facade over [Hashtbl] for any hashable
    structural key. *)

type 'a t

val create : int -> 'a t
(** [create n] makes an empty set with initial capacity [n]. *)

val mem : 'a t -> 'a -> bool
val add : 'a t -> 'a -> unit

val remove : 'a t -> 'a -> unit
val cardinal : 'a t -> int
val fold : ('a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val iter : ('a -> unit) -> 'a t -> unit

val elements : 'a t -> 'a list
(** The members, in unspecified order. *)

val of_list : 'a list -> 'a t
