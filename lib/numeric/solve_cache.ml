module Obs = Bufsize_obs.Obs

let global_enabled = Atomic.make true
let enabled () = Atomic.get global_enabled
let set_enabled b = Atomic.set global_enabled b

(* A plain loop, not [String.iter]: the closure would box the running
   hash on every byte, and LP keys run to tens of kilobytes. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h c) 0x100000001b3L
  done;
  !h

type 'a entry = { key : string; value : 'a; mutable stamp : int }

type 'a t = {
  cache_name : string;
  capacity : int;
  mutex : Mutex.t;
  table : (int64, 'a entry) Hashtbl.t;
  mutable tick : int;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  m_hits : Obs.counter;
  m_misses : Obs.counter;
}

(* Registry of every cache, so benchmarks and oracles can wipe global
   state between a cold and a warm measurement. *)
type any = Any : 'a t -> any

let registry_mutex = Mutex.create ()
let registry : any list ref = ref []

let create ?(capacity = 64) cache_name =
  let c =
    {
      cache_name;
      capacity = max 1 capacity;
      mutex = Mutex.create ();
      table = Hashtbl.create 64;
      tick = 0;
      hit_count = Atomic.make 0;
      miss_count = Atomic.make 0;
      m_hits = Obs.counter (Printf.sprintf "cache.%s.hits" cache_name);
      m_misses = Obs.counter (Printf.sprintf "cache.%s.misses" cache_name);
    }
  in
  Mutex.lock registry_mutex;
  registry := Any c :: !registry;
  Mutex.unlock registry_mutex;
  c

let name c = c.cache_name

let locked c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

let find c key =
  if not (enabled ()) then None
  else
    let h = fnv1a key in
    locked c @@ fun () ->
    match Hashtbl.find_all c.table h with
    | entries -> (
        match List.find_opt (fun e -> String.equal e.key key) entries with
        | Some e ->
            c.tick <- c.tick + 1;
            e.stamp <- c.tick;
            Atomic.incr c.hit_count;
            Obs.incr c.m_hits;
            Some e.value
        | None ->
            Atomic.incr c.miss_count;
            Obs.incr c.m_misses;
            None)

let evict_lru c =
  let oldest = ref None in
  Hashtbl.iter
    (fun h e ->
      match !oldest with
      | Some (_, prev) when prev.stamp <= e.stamp -> ()
      | _ -> oldest := Some (h, e))
    c.table;
  match !oldest with
  | None -> ()
  | Some (h, victim) ->
      (* Remove just the victim among possibly several same-hash bindings. *)
      let keep =
        Hashtbl.find_all c.table h
        |> List.filter (fun e -> not (e == victim))
      in
      while Hashtbl.mem c.table h do
        Hashtbl.remove c.table h
      done;
      List.iter (fun e -> Hashtbl.add c.table h e) (List.rev keep)

let add c key value =
  if enabled () then begin
    let h = fnv1a key in
    locked c @@ fun () ->
    c.tick <- c.tick + 1;
    let existing =
      Hashtbl.find_all c.table h |> List.find_opt (fun e -> String.equal e.key key)
    in
    match existing with
    | Some e -> e.stamp <- c.tick
    | None ->
        if Hashtbl.length c.table >= c.capacity then evict_lru c;
        Hashtbl.add c.table h { key; value; stamp = c.tick }
  end

let clear c = locked c @@ fun () -> Hashtbl.reset c.table

let hits c = Atomic.get c.hit_count
let misses c = Atomic.get c.miss_count
let length c = locked c @@ fun () -> Hashtbl.length c.table

let clear_all () =
  let caches =
    Mutex.lock registry_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) (fun () -> !registry)
  in
  List.iter (fun (Any c) -> clear c) caches
