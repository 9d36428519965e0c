(** Compact text codec for the persistent analysis cache.

    Values, value-set lattice elements and whole abstract states round-trip
    through a prefix encoding with no lookahead. Strings use OCaml [%S]
    escaping, so encoded payloads never contain raw newlines and envelope
    files stay line-structured. Decoders raise {!Corrupt} on any malformed
    input; the cache layer turns that into a quarantined entry, never a
    crash. *)

exception Corrupt of string

type cursor
(** A read position over an immutable payload string. *)

val cursor : string -> cursor
val peek : cursor -> char
val next : cursor -> char
val expect : cursor -> char -> unit

val string_out : Buffer.t -> string -> unit
val string_in : cursor -> string

val int_out : Buffer.t -> int -> unit
val int_in : cursor -> int

val value_out : Buffer.t -> Ioa.Value.t -> unit
val value_in : cursor -> Ioa.Value.t

val vset_out : Buffer.t -> Vset.t -> unit
val vset_in : cursor -> Vset.t
(** Re-normalizes on decode, so a hand-edited entry cannot smuggle in an
    unordered or oversized set. *)

val interval_out : Buffer.t -> Interval.t -> unit
val interval_in : cursor -> Interval.t
(** Rejects a negative lower bound and an empty range: stored intervals are
    queue lengths. *)

val array_out : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a array -> unit
val array_in : cursor -> (cursor -> 'a) -> 'a array

val abuf_out : Buffer.t -> Astate.abuf -> unit
val abuf_in : cursor -> Astate.abuf
(** Rejects a buffer with finite items that are not all queues, or whose
    length is not the hull of their lengths (the {!Astate.buf_make} normal
    form the lattice operations rely on). *)

val asvc_out : Buffer.t -> Astate.asvc -> unit
val asvc_in : cursor -> Astate.asvc
val dopt_out : Buffer.t -> Astate.dopt -> unit
val dopt_in : cursor -> Astate.dopt
val astate_out : Buffer.t -> Astate.t -> unit
val astate_in : cursor -> Astate.t

val iset_out : Buffer.t -> Spec.Iset.t -> unit
val iset_in : cursor -> Spec.Iset.t
