(** Wall-clock time budgets for the solver stack.

    A deadline is an absolute point on the monotonic solver clock
    ({!now_ms}); {!none} never expires. Deadlines are plain immutable
    values, safe to share across {!Par} worker domains.

    Hot loops poll with {!check}, which raises {!Expired} — the
    branch-and-bound driver ({!Lp.Ilp}) polls at every node pop and the
    simplex kernels every few dozen pivots, so a deadline hit surfaces
    within a bounded amount of work and the caller returns its best
    incumbent instead of running away. *)

type t

exception Expired
(** Raised by {!check}; callers catch it at the level that holds an
    incumbent to return. *)

val none : t
(** The deadline that never expires (all checks are free of clock
    reads). *)

val after_ms : float -> t
(** [after_ms budget] expires [budget] milliseconds from now. A
    non-positive budget is already expired. *)

val of_ms_opt : float option -> t
(** [of_ms_opt (Some b) = after_ms b]; [of_ms_opt None = none]. *)

val is_none : t -> bool

val expired : t -> bool

val check : t -> unit
(** @raise Expired once the deadline has passed. *)

val remaining_ms : t -> float option
(** Milliseconds left, clamped at [0.]; [None] for {!none}. *)

val now_ms : unit -> float
(** The solver clock, in milliseconds: [CLOCK_MONOTONIC], read through
    a C stub. It never decreases and does not step when the wall clock
    is adjusted; its origin is unspecified, so only differences mean
    anything. Every {!Metrics} span is timed with it. *)
