(** Exact non-negative big integers for model counting.

    Model counts used to be computed as [float] powers of two,
    which silently loses precision above 2{^53} satisfying assignments
    and overflows to [infinity] near 1024 variables — state spaces the
    scaling harness already reaches.  This module is the exact
    replacement: an arbitrary-precision unsigned integer with just the
    operations counting needs (no division, no subtraction), rendered as
    an exact decimal string. *)

type t
(** An arbitrary-precision non-negative integer.  Values are immutable
    and structurally comparable via {!compare}/{!equal}. *)

val zero : t
val one : t

val of_int : int -> t
(** @raise Invalid_argument on a negative argument. *)

val add : t -> t -> t
val mul_int : t -> int -> t
(** Multiply by a small non-negative factor.
    @raise Invalid_argument on a negative factor. *)

val shift_left : t -> int -> t
(** [shift_left x k] is [x · 2{^k}].  @raise Invalid_argument on k < 0. *)

val pow2 : int -> t
(** [pow2 k] is [2{^k}] — the count of a full cube over [k] variables. *)

val shift_right : t -> int -> t
(** [shift_right x k] is [x / 2{^k}], required exact: counting over a
    space with [k] redundant variables yields a multiple of [2{^k}].
    @raise Invalid_argument on k < 0 or when [2{^k}] does not divide
    [x]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** Exact decimal rendering (no exponent, no rounding): the string is a
    valid arbitrary-precision JSON number. *)

val to_int : t -> int option
(** [Some n] iff the value fits a native [int]. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
