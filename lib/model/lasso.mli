(** Lasso detection for deterministic round-robin runs.

    Under a fixed task order a run whose continuation depends only on the
    round-robin cursor and the global state has entered a cycle the moment a
    [(cursor, state)] pair repeats: the schedule will replay the same turns
    forever. Both the chaos runner (once a fault schedule is fully active)
    and the Lemma 6/7 fair runs detect their lassos with this table.

    Each key carries the state's hash, computed once per visit rather than
    once per table probe, and not at all when the state is physically the
    one the previous visit hashed (a no-op turn leaves the state as it
    was). *)

type t

val create : int -> t
(** An empty table, sized for about that many visits. *)

val visit : t -> cursor:int -> State.t -> step:int -> int option
(** [visit t ~cursor s ~step] is the step recorded for the first visit to
    [(cursor, s)] (up to {!State.equal}), if there was one. Otherwise it
    records [step] for the pair and returns [None]. *)
