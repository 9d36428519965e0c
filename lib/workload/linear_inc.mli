(** Incremental (windowed) linearizability checking for long histories,
    witness first.

    The monitor consumes the history one event at a time and decides it
    window by window. It first checks one candidate linearization, the
    return-order witness ({!Model.Linearize.witness}, shared with the chaos
    linearizability monitor), in time linear in the events: a surviving
    witness is a valid linearization, so every [Ok] it gives is sound. The
    engine delivers responses in commit order, so on its histories the
    return order is the commit-log order and the witness holds.

    Only when the witness fails does the monitor search. It replays
    {!Model.Linearize.advance} from {!Model.Linearize.init_configs} over the
    windows closed so far, which it keeps while the witness holds, and stays
    in frontier mode from then on. The frontier is every search
    configuration some linearization of the events so far can be in; a
    history is linearizable iff no window empties it, for {e any} partition
    into windows. The replay makes [Violation] and [Truncated] verdicts,
    messages included, those of the search alone. The one difference: a
    history whose witness never fails is [Ok] even where the search alone
    would have exhausted its node budget. The engine flushes at
    near-quiescent ticks, where few ops straddle the boundary and the
    frontier stays small. *)

type verdict =
  | Ok
  | Violation of string  (** Non-linearizable; names the failing window. *)
  | Truncated of string  (** Node budget exhausted; verdict unknown. *)

type t

val create : ?max_nodes:int -> ?soft_outstanding:int -> ?hard_buffer:int -> Spec.Seq_type.t -> t
(** [max_nodes] (default 200k) bounds each window's search; [soft_outstanding]
    (default 4) is the flush policy's near-quiescence threshold — the frontier
    carried across a boundary grows roughly factorially in the calls that
    straddle it, so this must stay small; [hard_buffer] (default 2048) forces
    a flush regardless. *)

val record : t -> Model.Linearize.event -> unit
(** Append one history event (in real-time order). No-op after a verdict. *)

val tick : t -> verdict
(** Flush the buffered window if the policy allows (few outstanding calls, or
    the buffer hit its hard cap); otherwise keep buffering. *)

val flush : t -> verdict
(** Force a flush of whatever is buffered. *)

val finish : t -> verdict
(** Final flush at end of run; the returned verdict is the history's. *)

val verdict : t -> verdict

val windows : t -> int

val searched : t -> int
(** Windows the frontier search decided: the window where the witness failed
    and every later one (the replayed earlier windows are not counted). 0
    when the witness held throughout. *)

val events : t -> int
val max_window : t -> int
val max_frontier : t -> int
(** Largest frontier the search reached; the number of initial values while
    the search has never run. *)

val outstanding : t -> int
(** Calls without a matching return so far — the concurrency the next flush
    will carry across the boundary. *)
