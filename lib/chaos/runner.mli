(** The monitored chaos run: drive a system under a compiled fault schedule,
    checking safety monitors per step and liveness monitors at the end.

    The task order is either the fair round-robin (with lasso detection:
    once the schedule is {!Schedule.fully_active}, a repeated
    (cursor, state) pair proves the run cycles forever, turning liveness
    verdicts into proofs) or a seeded-random interleaving with exact replay
    (the same seed reproduces the identical execution; asserted in tests). *)

type interleave =
  | Round_robin
  | Seeded of int  (** Uniform random task choice from this seed. *)

type stop =
  | Violation of { monitor : string; reason : string; proven : bool }
      (** [proven] is true for safety violations (the prefix is the witness)
          and for liveness violations established at a lasso; false when the
          evidence is only budget-bounded. *)
  | Lasso of { period : int }  (** All monitors passed; run provably cycles. *)
  | Budget  (** All monitors passed within the step budget. *)
  | Pruned
      (** The [on_active] probe recognized the configuration at schedule
          activation as already explored: the run was cut short, inheriting
          the recorded run's verdict. Only produced when a probe is given. *)

type result = {
  exec : Model.Exec.t;  (** The violating prefix, or the full bounded run. *)
  steps : int;
  stop : stop;
  monitor_truncations : (string * Monitor.category * string) list;
      (** Monitors that declined to decide, with reasons — reported, never
          silently dropped. *)
  undelivered_crashes : int;
      (** Crashes scheduled beyond the executed step range. *)
  undelivered_net : int;
      (** Net faults / partition starts scheduled beyond the executed
          range. *)
  vacuous_net_faults : int;
      (** Delivered net faults that found an empty buffer and mutated
          nothing; they leave no event in the execution. *)
}

val pp_stop : Format.formatter -> stop -> unit

val default_inputs : Model.System.t -> Ioa.Value.t list
(** Binary inputs [i mod 2], the staircase convention used elsewhere. *)

(** {1 Checkpoints}

    The runner is deterministic and executions are immutable, so a run can
    be resumed from a snapshot of another run that makes the same turns up
    to that point. The chaos explorer uses this to run each fault schedule
    from a checkpoint of its {!Schedule.parent} at the step where the two
    diverge, instead of replaying the shared prefix from the initial state
    (DESIGN.md §3.16). *)

type checkpoint
(** A run paused before a turn: the execution so far, the step and
    round-robin cursor, the monitor truncations and vacuous-fault count
    accumulated so far and, under [Seeded], a private copy of the task-order
    generator. It holds no lasso table: the runs it serves are not
    {!Schedule.fully_active} before they diverge from it, so their tables
    are still empty there. It holds no monitor state either: the monitors
    read only the immutable execution. A checkpoint may also be a {e cut}:
    a safety monitor failed before the step, and every run resumed from it
    ends with that violation. Immutable; safe to share across domains. *)

type stem
(** The checkpoints of one schedule's walk over a range of steps, taken with
    lasso detection and the [on_active] probe off and without end-of-run
    monitors. The range grows on demand ({!at}). Not safe to share across
    domains. *)

val stem :
  ?monitors:Monitor.t list ->
  ?max_steps:int ->
  ?interleave:interleave ->
  ?inputs:Ioa.Value.t list ->
  ?prefix:checkpoint ->
  schedule:Schedule.t ->
  upto:int ->
  Model.System.t ->
  stem
(** Walk [schedule] from [prefix] (default: the initial state), recording a
    checkpoint at every step from the prefix's step through [upto]. The
    walk stops early at a safety violation, whose cut then answers every
    later step, and at [max_steps]. [prefix] must come from a walk of a
    schedule that makes the same turns as [schedule] before its step (its
    {!Schedule.parent} chain), and [monitors], [max_steps], [interleave]
    and [inputs] must be those of the runs the stem serves — resuming is
    unsound otherwise. *)

val at : stem -> int -> checkpoint
(** [at stem d] is the checkpoint at step [d], or the cut if the walk ended
    at a violation first; walks on if [d] lies past the recorded range.
    Raises [Invalid_argument] before the stem's first step. *)

val run :
  ?monitors:Monitor.t list ->
  ?max_steps:int ->
  ?interleave:interleave ->
  ?inputs:Ioa.Value.t list ->
  ?on_active:(step:int -> cursor:int -> Model.Exec.t -> [ `Continue | `Prune ]) ->
  ?prefix:checkpoint ->
  schedule:Schedule.t ->
  Model.System.t ->
  result
(** Defaults: {!Monitor.defaults}, 20_000 steps, [Round_robin], binary
    inputs.

    [on_active], if given, is called exactly once, at the first [Round_robin]
    step where the compiled schedule is {!Schedule.fully_active} — the point
    from which the continuation is a deterministic function of the cursor and
    the state. [cursor] is already reduced mod the task count. Returning
    [`Prune] stops the run immediately with {!Pruned} and {e without}
    evaluating end-of-run monitors: the caller asserts it has already
    examined an equivalent configuration. Never called under [Seeded]
    interleaving. Without the argument, behaviour is byte-identical to the
    probe-free runner.

    [prefix] resumes the run from a checkpoint instead of the initial state:
    the compiled schedule is driven through the checkpoint's earlier turns
    ({!Schedule.drop_before}), and the run goes on from there with a fresh
    lasso table. When the checkpoint was taken on a walk of a schedule that
    makes the same turns as [schedule] before it ({!Schedule.parent}), with
    the same [monitors], [max_steps], [interleave] and [inputs], the result
    — steps, stop, truncations, every counter and the whole execution — is
    the one the run from the initial state gives; a cut checkpoint ends the
    run at its violation. *)
