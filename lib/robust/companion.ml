module Make (S : Plr_util.Scalar.S) = struct
  module M = Plr_util.Smat.Make (S)
  module Serial = Plr_serial.Serial.Make (S)

  type t = {
    k : int;
    ntaps : int;
    forward : S.t array;
    feedback : S.t array;
    c : M.mat Lazy.t; (* built on first skip-ahead, not at compile *)
  }

  let compile (s : S.t Signature.t) =
    let feedback = s.Signature.feedback and forward = s.Signature.forward in
    {
      k = Array.length feedback;
      ntaps = Array.length forward;
      forward;
      feedback;
      c = lazy (M.companion feedback);
    }

  let order t = t.k
  let taps t = t.ntaps
  let matrix t = Lazy.force t.c

  (* Binary exponentiation: O(k^3 log e) scalar multiplications. *)
  let power t e =
    if e < 0 then invalid_arg "Companion.power: negative exponent";
    let rec go acc b e =
      if e = 0 then acc
      else
        let acc = if e land 1 = 1 then M.mat_mul acc b else acc in
        go acc (M.mat_mul b b) (e lsr 1)
    in
    go (M.identity t.k) (matrix t) e

  let check_state t state name =
    if Array.length state <> t.k then
      invalid_arg
        (Printf.sprintf "Companion.%s: state has %d entries, order is %d" name
           (Array.length state) t.k)

  let advance t ~state ~steps =
    check_state t state "advance";
    if steps < 0 then invalid_arg "Companion.advance: negative steps";
    if steps = 0 || t.k = 0 then Array.copy state
    else M.mat_vec (power t steps) state

  (* Constant input d per step: augment the state with a constant-1 lane,
     [[C d·e0; 0 1]] · (state, 1) = (C·state + d·e0, 1), and exponentiate
     the (k+1)×(k+1) matrix instead. *)
  let augmented t ~input =
    let k = t.k in
    let c = matrix t in
    Array.init (k + 1) (fun r ->
        Array.init (k + 1) (fun cl ->
            if r < k && cl < k then c.(r).(cl)
            else if r = 0 && cl = k then input
            else if r = k && cl = k then S.one
            else S.zero))

  let advance_const t ~state ~input ~steps =
    check_state t state "advance_const";
    if steps < 0 then invalid_arg "Companion.advance_const: negative steps";
    if steps = 0 || t.k = 0 then Array.copy state
    else begin
      let a = augmented t ~input in
      let rec go acc b e =
        if e = 0 then acc
        else
          let acc = if e land 1 = 1 then M.mat_mul acc b else acc in
          go acc (M.mat_mul b b) (e lsr 1)
      in
      let p = go (M.identity (t.k + 1)) a steps in
      let aug = Array.append state [| S.one |] in
      Array.sub (M.mat_vec p aug) 0 t.k
    end

  let replay ?(input = S.zero) t ~state ~steps =
    check_state t state "replay";
    if steps < 0 then invalid_arg "Companion.replay: negative steps";
    let state = Array.copy state in
    for _ = 1 to steps do
      let acc = ref input in
      for j = 1 to t.k do
        acc := S.add !acc (S.mul t.feedback.(j - 1) state.(j - 1))
      done;
      for j = t.k - 1 downto 1 do
        state.(j) <- state.(j - 1)
      done;
      if t.k > 0 then state.(0) <- !acc
    done;
    state

  let at ?(input = `Impulse) t n =
    if n < 0 then invalid_arg "Companion.at: negative index";
    let d = Array.fold_left S.add S.zero t.forward in
    let sample i =
      match input with
      | `Impulse -> if i = 0 then S.one else S.zero
      | `Step -> S.one
    in
    (* Serial warm-up long enough that (a) a full state window exists and
       (b) every skipped index is past the FIR taps, where the forward
       contribution is 0 (impulse) or the constant d (step). *)
    let p = max t.k t.ntaps in
    if n < p then begin
      let sig_ = Signature.create ~is_zero:S.is_zero ~forward:t.forward ~feedback:t.feedback in
      let y = Serial.full sig_ (Array.init (n + 1) sample) in
      y.(n)
    end
    else if t.k = 0 then (match input with `Impulse -> S.zero | `Step -> d)
    else begin
      let sig_ = Signature.create ~is_zero:S.is_zero ~forward:t.forward ~feedback:t.feedback in
      let y = Serial.full sig_ (Array.init p sample) in
      let state = Array.init t.k (fun j -> y.(p - 1 - j)) in
      let steps = n + 1 - p in
      let state' =
        match input with
        | `Impulse -> advance t ~state ~steps
        | `Step -> advance_const t ~state ~input:d ~steps
      in
      state'.(0)
    end

  module Checkpoint = struct
    type state = t

    type t = {
      pos : int;
      carries : S.t array;
      input_tail : S.t array;
      digest : int;
    }

    (* The recovery engine's digest: full scalar content, float bits
       included. *)
    let compute_digest ~pos ~carries ~input_tail =
      Plr_exec.Recovery.digest ~pos [ carries; input_tail ]

    let make (cp : state) ~pos ~carries ~input_tail =
      if Array.length carries <> cp.k then
        invalid_arg "Checkpoint.make: carries length <> order";
      if Array.length input_tail > max 0 (cp.ntaps - 1) then
        invalid_arg "Checkpoint.make: input tail longer than taps - 1";
      let carries = Array.copy carries in
      let input_tail = Array.copy input_tail in
      { pos; carries; input_tail; digest = compute_digest ~pos ~carries ~input_tail }

    let valid t =
      t.digest
      = compute_digest ~pos:t.pos ~carries:t.carries ~input_tail:t.input_tail
  end
end
