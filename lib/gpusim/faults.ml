type kind =
  | Reorder
  | Delay_flag
  | Drop_local
  | Drop_global
  | Corrupt_carry
  | Poison_chunk

type event = { kind : kind; chunk : int; lane : int; delay : int }
type plan = { events : event list }

let none = { events = [] }
let is_none p = p.events = []
let of_events events = { events }

let all_kinds =
  [ Reorder; Delay_flag; Drop_local; Drop_global; Corrupt_carry; Poison_chunk ]

let kind_to_string = function
  | Reorder -> "reorder"
  | Delay_flag -> "delay-flag"
  | Drop_local -> "drop-local"
  | Drop_global -> "drop-global"
  | Corrupt_carry -> "corrupt-carry"
  | Poison_chunk -> "poison-chunk"

let kinds_in p =
  List.fold_left
    (fun acc e -> if List.mem e.kind acc then acc else acc @ [ e.kind ])
    [] p.events

let events_at p ~chunks k c =
  List.filter (fun e -> e.kind = k && e.chunk mod chunks = c) p.events

let permutation p chunks =
  let order = Array.init chunks (fun i -> i) in
  List.iter
    (fun e ->
      if e.kind = Reorder && chunks > 0 then begin
        let i = e.chunk mod chunks and j = e.lane mod chunks in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      end)
    p.events;
  order

let random ~seed ~chunks ~lanes ?(kinds = all_kinds) ~max_events () =
  if chunks < 1 || lanes < 1 || kinds = [] then none
  else begin
    let gen = Plr_util.Splitmix.create seed in
    let count = Plr_util.Splitmix.int_in gen ~lo:0 ~hi:(max 0 max_events) in
    let karr = Array.of_list kinds in
    let events =
      List.init count (fun _ ->
          let kind = karr.(Plr_util.Splitmix.int gen ~bound:(Array.length karr)) in
          (* A reorder's [lane] is its swap partner, so it ranges over
             chunks, not carry lanes. *)
          let lane_bound = if kind = Reorder then chunks else lanes in
          {
            kind;
            chunk = Plr_util.Splitmix.int gen ~bound:chunks;
            lane = Plr_util.Splitmix.int gen ~bound:lane_bound;
            delay = Plr_util.Splitmix.int_in gen ~lo:1 ~hi:5;
          })
    in
    { events }
  end

let pp ppf p =
  if is_none p then Format.fprintf ppf "no faults"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
      (fun ppf e ->
        Format.fprintf ppf "%s@chunk%d/lane%d+%d" (kind_to_string e.kind)
          e.chunk e.lane e.delay)
      ppf p.events

module Damage (S : Plr_util.Scalar.S) = struct
  let poison =
    match S.kind with
    | Plr_util.Scalar.Floating -> S.of_float Float.nan
    | Plr_util.Scalar.Integer -> S.of_int 0x5EED_BAD

  let corrupt v = S.add (S.mul v (S.of_int 3)) (S.of_int 41)
end
