module Time = Sw_sim.Time
module Int_tbl = Sw_obs.Int_tbl

type tier = { capacity : int; hit_cost : Time.t }
type config = { tiers : tier list; origin_cost : Time.t }

let validate_config { tiers; origin_cost } =
  if tiers = [] then invalid_arg "Cache: no tiers";
  List.iter
    (fun t ->
      if t.capacity <= 0 then invalid_arg "Cache: non-positive tier capacity";
      if Time.is_negative t.hit_cost then invalid_arg "Cache: negative hit cost")
    tiers;
  if Time.is_negative origin_cost then invalid_arg "Cache: negative origin cost"

(* One intrusive doubly-linked LRU list per tier: head = most recent. *)
type node = {
  key : int;
  mutable tier : int;
  mutable prev : node option;
  mutable next : node option;
}

type dll = {
  mutable head : node option;
  mutable tail : node option;
  mutable size : int;
}

type t = {
  tiers : tier array;
  lists : dll array;
  index : node Int_tbl.t;
  origin_cost : Time.t;
}

type outcome = Hit of { tier : int; cost : Time.t } | Miss of { cost : Time.t }

let create config =
  validate_config config;
  let tiers = Array.of_list config.tiers in
  {
    tiers;
    lists = Array.init (Array.length tiers) (fun _ -> { head = None; tail = None; size = 0 });
    index = Int_tbl.create 256;
    origin_cost = config.origin_cost;
  }

let unlink l n =
  (match n.prev with Some p -> p.next <- n.next | None -> l.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> l.tail <- n.prev);
  n.prev <- None;
  n.next <- None;
  l.size <- l.size - 1

let push_front l n =
  n.prev <- None;
  n.next <- l.head;
  (match l.head with Some h -> h.prev <- Some n | None -> l.tail <- Some n);
  l.head <- Some n;
  l.size <- l.size + 1

let pop_tail l =
  match l.tail with
  | None -> None
  | Some n ->
      unlink l n;
      Some n

(* Restore every tier's capacity invariant: each overfull tier demotes its
   LRU tail to the head of the next tier; the last tier's tail is evicted
   outright. *)
let cascade t =
  let last = Array.length t.tiers - 1 in
  for i = 0 to last do
    while t.lists.(i).size > t.tiers.(i).capacity do
      match pop_tail t.lists.(i) with
      | None -> assert false
      | Some n ->
          if i = last then Int_tbl.remove t.index n.key
          else begin
            n.tier <- i + 1;
            push_front t.lists.(i + 1) n
          end
    done
  done

let access t key =
  match Int_tbl.find_opt t.index key with
  | Some n ->
      let found = n.tier in
      unlink t.lists.(found) n;
      n.tier <- 0;
      push_front t.lists.(0) n;
      cascade t;
      Hit { tier = found; cost = t.tiers.(found).hit_cost }
  | None ->
      let n = { key; tier = 0; prev = None; next = None } in
      Int_tbl.replace t.index key n;
      push_front t.lists.(0) n;
      cascade t;
      Miss { cost = t.origin_cost }

