module StateTbl = Hashtbl.Make (struct
  type t = Model.State.t

  let equal = Model.State.equal
  let hash = Model.State.hash
end)

type t = {
  system : Model.System.t;
  states : Model.State.t array;
  succs_arr : (Model.Task.t * int) list array;
  complete : bool;
  index : int StateTbl.t Lazy.t;
}

(* --- Vertex keys ---

   A state's key is an int array with one interned id per component: each
   process value, each service record (value plus buffers), then the failed
   set, the decisions array and the inputs array. Interning is structural,
   with the same equalities [Model.State.compare] uses, so two keys are equal
   exactly when the states are [Model.State.equal]. *)

let fnv h x = (h * 16777619) lxor x
let fnv_seed = 2166136261

(* Assigns each structurally distinct component the next free id. *)
module Intern (H : Hashtbl.HashedType) = struct
  include Hashtbl.Make (H)

  let id tbl x =
    match find_opt tbl x with
    | Some i -> i
    | None ->
      let i = length tbl in
      add tbl x i;
      i
end

module Values = Intern (Ioa.Value)

module Svcs = Intern (struct
  type t = Model.State.svc

  let bufs_equal a b =
    Array.length a = Array.length b && Array.for_all2 (List.equal Ioa.Value.equal) a b

  let equal (a : t) (b : t) =
    Ioa.Value.equal a.value b.value
    && bufs_equal a.inv_bufs b.inv_bufs
    && bufs_equal a.resp_bufs b.resp_bufs

  (* The per-buffer sentinel keeps adjacent buffers from aliasing. *)
  let hash_bufs h bufs =
    Array.fold_left
      (fun h q -> List.fold_left (fun h v -> fnv h (Ioa.Value.hash v)) (fnv h 0x5eed) q)
      h bufs

  let hash (s : t) =
    hash_bufs (hash_bufs (fnv fnv_seed (Ioa.Value.hash s.value)) s.inv_bufs) s.resp_bufs
    land max_int
end)

module Failed = Intern (struct
  type t = Spec.Iset.t

  let equal = Spec.Iset.equal
  let hash s = Spec.Iset.fold (fun i h -> fnv h i) s fnv_seed land max_int
end)

(* Decisions and inputs share one table: the slot tells them apart. *)
module Opts = Intern (struct
  type t = Ioa.Value.t option array

  let equal a b =
    Array.length a = Array.length b && Array.for_all2 (Option.equal Ioa.Value.equal) a b

  let hash a =
    Array.fold_left
      (fun h d -> fnv h (match d with None -> 17 | Some v -> Ioa.Value.hash v))
      fnv_seed a
    land max_int
end)

module Keys = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  (* FNV only carries low bits upwards; fold the high half back down, since
     the table indexes by the low bits. *)
  let hash k =
    let h = Array.fold_left fnv fnv_seed k in
    (h lxor (h lsr 29)) land max_int
end)

type interner = {
  values : int Values.t;
  svcs : int Svcs.t;
  failed : int Failed.t;
  opts : int Opts.t;
}

let key_of it (s : Model.State.t) =
  let n = Array.length s.procs and m = Array.length s.svcs in
  let k = Array.make (n + m + 3) 0 in
  for i = 0 to n - 1 do
    k.(i) <- Values.id it.values s.procs.(i)
  done;
  for j = 0 to m - 1 do
    k.(n + j) <- Svcs.id it.svcs s.svcs.(j)
  done;
  k.(n + m) <- Failed.id it.failed s.failed;
  k.(n + m + 1) <- Opts.id it.opts s.decisions;
  k.(n + m + 2) <- Opts.id it.opts s.inputs;
  k

(* The key of [s], a successor of [parent] whose key is [pkey]. A component
   physically equal to the parent's is structurally equal too, so it keeps
   the parent's id; [State.with_*] copies only the slot it changes, so a
   transition interns just the one or two components it replaced.
   Transitions never resize the process or service arrays. *)
let child_key it ~(parent : Model.State.t) pkey (s : Model.State.t) =
  let n = Array.length s.procs and m = Array.length s.svcs in
  let k = Array.copy pkey in
  if s.procs != parent.procs then
    for i = 0 to n - 1 do
      if s.procs.(i) != parent.procs.(i) then k.(i) <- Values.id it.values s.procs.(i)
    done;
  if s.svcs != parent.svcs then
    for j = 0 to m - 1 do
      if s.svcs.(j) != parent.svcs.(j) then k.(n + j) <- Svcs.id it.svcs s.svcs.(j)
    done;
  if s.failed != parent.failed then k.(n + m) <- Failed.id it.failed s.failed;
  if s.decisions != parent.decisions then k.(n + m + 1) <- Opts.id it.opts s.decisions;
  if s.inputs != parent.inputs then k.(n + m + 2) <- Opts.id it.opts s.inputs;
  k

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let explore ?(max_states = 200_000) (sys : Model.System.t) start =
  let it =
    {
      values = Values.create 256;
      svcs = Svcs.create 256;
      failed = Failed.create 8;
      opts = Opts.create 64;
    }
  in
  let visited = Keys.create 1024 in
  (* Vertices are numbered in discovery order, which is also BFS order: the
     next vertex to expand is simply the lowest unexpanded index. *)
  let states = ref (Array.make 1024 start) in
  let keys = ref (Array.make 1024 [||]) in
  let succs = ref (Array.make 1024 []) in
  let n_states = ref 0 in
  let add_state s k =
    match Keys.find_opt visited k with
    | Some i -> i
    | None ->
      let i = !n_states in
      if i = Array.length !states then begin
        states := grow !states start;
        keys := grow !keys [||];
        succs := grow !succs []
      end;
      Keys.add visited k i;
      !states.(i) <- s;
      !keys.(i) <- k;
      incr n_states;
      i
  in
  ignore (add_state start (key_of it start));
  let tasks = Array.to_list sys.Model.System.tasks in
  let complete = ref true in
  let next = ref 0 in
  while !next < !n_states do
    let i = !next in
    incr next;
    if !n_states > max_states then complete := false
    else begin
      let s = !states.(i) and k = !keys.(i) in
      let edges =
        List.filter_map
          (fun e ->
            match Model.System.transition sys s e with
            | None -> None
            | Some (_event, s') -> Some (e, add_state s' (child_key it ~parent:s k s')))
          tasks
      in
      !succs.(i) <- edges
    end
  done;
  let n = !n_states in
  let states = Array.sub !states 0 n in
  let index =
    lazy
      (let tbl = StateTbl.create n in
       Array.iteri (fun i s -> StateTbl.add tbl s i) states;
       tbl)
  in
  { system = sys; states; succs_arr = Array.sub !succs 0 n; complete = !complete; index }

let system g = g.system
let size g = Array.length g.states
let complete g = g.complete
let root _ = 0
let state g i = g.states.(i)
let succs g i = g.succs_arr.(i)
let index_of g s = StateTbl.find_opt (Lazy.force g.index) s

let successor g i e =
  List.find_map
    (fun (e', j) -> if Model.Task.equal e e' then Some j else None)
    g.succs_arr.(i)

let path_between g ~src ~dst =
  if src = dst then Some []
  else begin
    let n = Array.length g.states in
    let pred = Array.make n None in
    let visited = Array.make n false in
    visited.(src) <- true;
    let queue = Queue.create () in
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun (e, v) ->
          if not visited.(v) then begin
            visited.(v) <- true;
            pred.(v) <- Some (u, e);
            if v = dst then found := true else Queue.add v queue
          end)
        g.succs_arr.(u)
    done;
    if not !found then None
    else begin
      let rec build v acc =
        match pred.(v) with
        | None -> acc
        | Some (u, e) -> build u (e :: acc)
      in
      Some (build dst [])
    end
  end

let find_state g p =
  let rec go i =
    if i >= Array.length g.states then None
    else if p g.states.(i) then Some i
    else go (i + 1)
  in
  go 0

let iter_states g f = Array.iteri f g.states
