module Obs = Bufsize_obs.Obs

let env_var = "BUFSIZE_SOLVE_CACHE"

(* Env contract: unset/empty -> defaults on; "0"/"off"/"false" -> disabled;
   positive integer -> enabled with that per-cache capacity. *)
let env_setting =
  match Sys.getenv_opt env_var with
  | None | Some "" -> `Default
  | Some ("0" | "off" | "OFF" | "false" | "no") -> `Disabled
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> `Capacity n
      | _ -> `Default)

let global_enabled =
  Atomic.make (match env_setting with `Disabled -> false | _ -> true)

let enabled () = Atomic.get global_enabled
let set_enabled b = Atomic.set global_enabled b

let default_capacity =
  match env_setting with `Capacity n -> n | `Default | `Disabled -> 64

(* A plain loop, not [String.iter]: the closure would box the running
   hash on every byte, and LP keys run to tens of kilobytes. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h c) 0x100000001b3L
  done;
  !h

let float_repr x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

type 'a entry = { key : string; value : 'a; mutable stamp : int }

type 'a t = {
  cache_name : string;
  capacity : int;
  always : bool;  (* ignore the global switch (caller gates it itself) *)
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

let create ?(capacity = default_capacity) ?(always = false) cache_name =
  let c =
    {
      cache_name;
      capacity = max 1 capacity;
      always;
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
  if not (c.always || enabled ()) then None
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
  if c.always || enabled () then begin
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
