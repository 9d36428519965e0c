type key = { cursor : int; hash : int; state : State.t }

(* The hash rides in the key, so a probe never rehashes a state, and a
   mismatched hash settles inequality before the structural comparison. *)
module Tbl = Hashtbl.Make (struct
  type t = key

  let equal k1 k2 =
    k1.cursor = k2.cursor && k1.hash = k2.hash
    && (k1.state == k2.state || State.equal k1.state k2.state)

  let hash k = (k.cursor * 31) lxor k.hash
end)

type t = {
  seen : int Tbl.t;
  mutable last : State.t option;  (** The state the previous visit hashed. *)
  mutable last_hash : int;
}

let create n = { seen = Tbl.create n; last = None; last_hash = 0 }

let hash t s =
  match t.last with
  | Some s' when s' == s -> t.last_hash
  | _ ->
    let h = State.hash s in
    t.last <- Some s;
    t.last_hash <- h;
    h

let visit t ~cursor s ~step =
  let key = { cursor; hash = hash t s; state = s } in
  match Tbl.find_opt t.seen key with
  | Some _ as prior -> prior
  | None ->
    Tbl.add t.seen key step;
    None
