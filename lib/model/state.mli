(** Global states of the complete system C (paper §2.2.3).

    A state packs the local state of every process, the state of every
    service (value + per-endpoint invocation/response buffers), the set of
    failed processes, and the decisions recorded so far (the paper's
    technical assumption that a [decide(v)_i] output records [v] in the state
    of [P_i], §2.2.1).

    States are immutable; all updates copy. Equality, ordering and hashing
    are structural, which is what the exploration engine memoizes on. *)

open Ioa

type svc = {
  value : Value.t;  (** The service value [val]. *)
  inv_bufs : Value.t list array;
      (** [inv_buffer(i)], indexed by endpoint {e position} in the service's
          endpoint list; head = oldest. *)
  resp_bufs : Value.t list array;  (** [resp_buffer(i)], same indexing. *)
}

type t = {
  procs : Value.t array;  (** Process program states, indexed by pid. *)
  svcs : svc array;  (** Service states, indexed by service position. *)
  failed : Spec.Iset.t;  (** Failed processes. *)
  decisions : Value.t option array;  (** Recorded decision per process. *)
  inputs : Value.t option array;  (** init(v) received per process. *)
}

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** A structural mix for hot hashtables: [equal s1 s2] implies
    [hash s1 = hash s2]. It allocates nothing. *)

val fingerprint : t -> int
(** A cheap structural fingerprint of the configuration: a 63-bit FNV-1a
    fold over the process states, the service states (value plus every
    pending invocation/response buffer, with per-container sentinels so
    adjacent buffers cannot alias), the failed set, and the recorded
    decisions and inputs. [equal s1 s2] implies
    [fingerprint s1 = fingerprint s2]; the converse holds up to 63-bit
    collision. This is what the chaos explorer's cross-run visited sets key
    on — see [Chaos.Fingerprint]. *)

val pp : Format.formatter -> t -> unit

val with_proc : t -> int -> Value.t -> t
(** Functional update of one process state. *)

val with_svc : t -> int -> svc -> t
val with_decision : t -> int -> Value.t -> t
val with_input : t -> int -> Value.t -> t
val with_failed : t -> Spec.Iset.t -> t

val svc_push_inv : svc -> pos:int -> Value.t -> svc
(** Appends an invocation at the tail of [inv_buffer] at endpoint position
    [pos]. *)

val svc_pop_inv : svc -> pos:int -> (Value.t * svc) option
val svc_push_resp : ?coalesce:bool -> svc -> pos:int -> Value.t -> svc
(** Appends a response; with [coalesce] (default false), appending a response
    equal to the current tail is a no-op (used to keep spontaneous
    failure-detector output buffers finite — see DESIGN.md §6). *)

val svc_pop_resp : svc -> pos:int -> (Value.t * svc) option

val svc_drop_resp : svc -> pos:int -> svc option
(** Discards the head response at endpoint position [pos] (omission fault);
    [None] when the buffer is empty — the fault is vacuous. *)

val svc_dup_resp : svc -> pos:int -> svc option
(** Re-enqueues a copy of the head response at the tail (duplication fault);
    [None] when the buffer is empty. *)

val svc_delay_resp : svc -> pos:int -> lag:int -> svc option
(** Moves the head response [lag] positions back in the buffer, clamped to
    the buffer length (delay/reordering fault); [None] when the mutation
    would leave the buffer unchanged (empty, singleton, or [lag <= 0]). *)

val decided_pairs : t -> (int * Value.t) list
(** All [(pid, v)] with a recorded decision. *)

val decided_values : t -> Value.t list
(** Distinct decided values, sorted. *)
