(* The benchmark's own span recorder, used only in the traced run.
   Spans are recorded from the benchmark's files around calls into each
   layer's public functions: name, start, end, the enclosing span, and a
   request id shared by the spans of one request.  They stay in memory
   (one buffer per domain) and are aggregated when the run ends. *)

type span = {
  name : string;
  t0 : float;
  t1 : float;
  id : int;
  parent : int;  (** 0 at top level *)
  req : int;  (** request id; 0 when the span belongs to no request *)
}

type buf = { mutable items : span list; mutable stack : int list }

let enabled = Atomic.make false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let registry : buf list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let b = { items = []; stack = [] } in
      Mutex.protect lock (fun () -> registry := b :: !registry);
      b)

let set_enabled v = Atomic.set enabled v

let reset () =
  Mutex.protect lock (fun () ->
      List.iter
        (fun b ->
          b.items <- [];
          b.stack <- [])
        !registry)

(* Record a span whose instants the caller already measured. *)
let record ?(req = 0) ?parent name t0 t1 =
  if Atomic.get enabled then begin
    let b = Domain.DLS.get key in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match b.stack with p :: _ -> p | [] -> 0)
    in
    let id = Atomic.fetch_and_add next_id 1 in
    b.items <- { name; t0; t1; id; parent; req } :: b.items;
    id
  end
  else 0

(* [time name f] runs [f] inside a span when recording is on. *)
let time name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let b = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match b.stack with p :: _ -> p | [] -> 0 in
    b.stack <- id :: b.stack;
    let t0 = Clock.now () in
    let finish () =
      let t1 = Clock.now () in
      b.stack <- (match b.stack with _ :: r -> r | [] -> []);
      b.items <- { name; t0; t1; id; parent; req = 0 } :: b.items
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let collect () =
  Mutex.protect lock (fun () -> List.concat_map (fun b -> b.items) !registry)

(* Self time per span name: duration minus the part its children cover. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let v = s.t1 -. s.t0 -. c in
      Hashtbl.replace self s.name
        (v +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
