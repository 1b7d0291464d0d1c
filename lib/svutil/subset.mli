(** Enumeration of subsets of a finite universe, used by the exhaustive
    safe-view search (Section 3.2) and the brute-force solvers. *)

val all : 'a list -> 'a list list
(** All [2^n] subsets. Raises [Invalid_argument] for universes larger
    than 25 elements — exhaustive search beyond that is a bug, not a
    workload. *)

val check_universe : 'a list -> unit
(** Raises [Invalid_argument] when the universe is larger than 25
    elements, the limit every enumeration here enforces. *)

val of_mask : 'a list -> int -> 'a list
(** The subset whose members are the elements at the set bit positions
    of the mask (bit [i] is the [i]-th element), in universe order. *)

val of_size : 'a list -> int -> 'a list list
(** All subsets of the given cardinality. *)

val by_increasing_size : 'a list -> 'a list list
(** All subsets ordered by cardinality (then lexicographically by
    position), which lets searches that rely on upward-closedness
    (Proposition 1) stop early. *)

val iter : 'a list -> ('a list -> unit) -> unit
(** Iterate over all subsets without materializing the list of lists. *)
