(** The execution graph G(C) (paper §3.3), materialized.

    Vertices are the failure-free reachable global states from a given
    (input-first) start state; there is an edge labelled with task [e] from
    [s] to [e(s)] whenever [e] is applicable. Under the §3.1 determinism
    assumptions each task labels at most one outgoing edge, so the graph of
    states is the quotient of the paper's tree of executions by end-state
    equality — valence is a function of the end state, which is what makes
    the analysis exact.

    Exploration is bounded by [max_states]; [complete g = false] reports that
    the bound was hit (no silent truncation).

    {b Vertex keys.} While exploring, each state is keyed by a small int
    array of length n + |services| + 3: an interned id for each process
    value, each service record (value plus invocation/response buffers), the
    failed set, the decisions array and the inputs array. Ids come from
    structural interning, so equal keys mean [Model.State.equal] states and
    vice versa. A successor's key starts as a copy of its parent's; a
    component physically equal to the parent's keeps the parent's id, so one
    transition hashes only the one or two components it replaced, and each
    edge costs one probe of the visited table (plus an insertion on a miss).
    The interning and key tables are dropped when [explore] returns: a
    graph keeps only its states and successor lists. *)

type t

val explore : ?max_states:int -> Model.System.t -> Model.State.t -> t
(** Breadth-first materialization of G(C) from the given start state
    (default bound 200_000 states). Failure-free: only task edges, no [fail]
    inputs, real-preferring policy (no dummy is enabled anyway while
    [failed = ∅]). *)

val system : t -> Model.System.t
val size : t -> int
val complete : t -> bool
val root : t -> int
val state : t -> int -> Model.State.t
val succs : t -> int -> (Model.Task.t * int) list

val index_of : t -> Model.State.t -> int option
(** Vertex index of a state, if explored. The first call on a graph builds
    a table of all its states (one full-state hash per vertex); later calls
    are O(1) expected. *)

val successor : t -> int -> Model.Task.t -> int option
(** The unique [e]-successor of a vertex, if [e] is applicable. *)

val path_between : t -> src:int -> dst:int -> Model.Task.t list option
(** A task path from [src] to [dst] in G(C), by BFS. *)

val find_state : t -> (Model.State.t -> bool) -> int option
(** Lowest-index explored vertex satisfying the predicate. *)

val iter_states : t -> (int -> Model.State.t -> unit) -> unit
