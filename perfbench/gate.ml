(* The correctness gate.  Every output the benchmark receives is compared
   with a reference the benchmark computed once, before timing, with the
   program's serial evaluators ([Serial.full], [Scan.serial]).

   - Integer results must match bitwise.
   - Float results from [Serve.submit] follow its documented contract:
     bitwise on every path that does not degrade.  A result that is not
     bitwise but passes [Serial.validate] is accepted only while the
     server's [degraded] counter covers it ({!reconcile}).
   - Float results of paths whose contract is a tolerance (the pooled
     float scan reassociates its carries; a float session corrects each
     piece's boundary) pass bitwise or through [Serial.validate].

   Everything that is not a correct answer counts as a failure:
   rejected, deadline-missed and failed requests, and wrong outputs. *)

type contract = Bitwise | Bitwise_unless_degraded | Tolerance

type t = {
  attempted : int Atomic.t;
  failed : int Atomic.t;  (** every attempt without a correct output *)
  wrong : int Atomic.t;  (** outputs that failed the comparison *)
  errors : int Atomic.t;  (** rejected / deadline-missed / failed calls *)
  tol_degraded : int Atomic.t;
      (** non-bitwise float submits accepted under [degraded] *)
  pending : int Atomic.t;  (** of those, not yet {!reconcile}d *)
  tol_contract : int Atomic.t;
      (** non-bitwise float outputs within a tolerance contract *)
  first : string option Atomic.t;  (** the first failure, for the log *)
}

let create () =
  {
    attempted = Atomic.make 0;
    failed = Atomic.make 0;
    wrong = Atomic.make 0;
    errors = Atomic.make 0;
    tol_degraded = Atomic.make 0;
    pending = Atomic.make 0;
    tol_contract = Atomic.make 0;
    first = Atomic.make None;
  }

let note t msg = ignore (Atomic.compare_and_set t.first None (Some msg))
let attempt t = Atomic.incr t.attempted

(* A call that returned an error instead of an output. *)
let error t msg =
  Atomic.incr t.errors;
  Atomic.incr t.failed;
  note t msg

let wrong t msg =
  Atomic.incr t.wrong;
  Atomic.incr t.failed;
  note t msg

(* Integer references live off the OCaml heap: the program's major GC
   never has to scan the benchmark's own reference data.  (Float arrays
   are never scanned, so float references stay plain arrays.) *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints (a : int array) : ints = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout a

let int_equal ~(expected : ints) ~off y =
  let n = Array.length y in
  if off < 0 || off + n > Bigarray.Array1.dim expected then false
  else begin
    let ok = ref true and i = ref 0 in
    while !ok && !i < n do
      if Array.unsafe_get y !i <> Bigarray.Array1.unsafe_get expected (off + !i) then
        ok := false;
      incr i
    done;
    !ok
  end

let float_bitwise ~expected ~off (y : float array) =
  let n = Array.length y in
  if off < 0 || off + n > Array.length expected then false
  else begin
    let ok = ref true and i = ref 0 in
    while !ok && !i < n do
      if
        Int64.bits_of_float (Array.unsafe_get y !i)
        <> Int64.bits_of_float (Array.unsafe_get expected (off + !i))
      then ok := false;
      incr i
    done;
    !ok
  end

(* [check_int t ~what ~expected ~off y]: [y] must equal
   [expected.(off) ..] bitwise.  Returns whether it did. *)
let check_int t ~what ~expected ~off y =
  if int_equal ~expected ~off y then true
  else begin
    wrong t (Printf.sprintf "%s: integer output differs from the reference" what);
    false
  end

(* [validate] is the program's [Serial.Make(S).validate] for the float
   scalar in use. *)
let check_float t ~what ~contract
    ~(validate : expected:float array -> float array -> (unit, string) result)
    ~expected ~off y =
  if float_bitwise ~expected ~off y then true
  else if contract = Bitwise then begin
    wrong t (Printf.sprintf "%s: float output is not bitwise" what);
    false
  end
  else begin
    let n = Array.length y in
    let ok =
      off >= 0
      && off + n <= Array.length expected
      && validate ~expected:(Array.sub expected off n) y = Ok ()
    in
    if not ok then begin
      wrong t (Printf.sprintf "%s: float output outside tolerance" what);
      false
    end
    else begin
      if contract = Tolerance then Atomic.incr t.tol_contract
      else begin
        Atomic.incr t.tol_degraded;
        Atomic.incr t.pending
      end;
      true
    end
  end

(* Non-bitwise float submits since the last call, beyond the [degraded]
   count of the servers that answered them, broke [Serve.submit]'s
   contract: count them as wrong. *)
let reconcile t ~degraded =
  let excess = Atomic.exchange t.pending 0 - degraded in
  if excess > 0 then
    for _ = 1 to excess do
      wrong t "non-bitwise float submit on a path the server did not degrade"
    done

let attempted t = Atomic.get t.attempted
let failed t = Atomic.get t.failed
let wrong_count t = Atomic.get t.wrong

let fail_frac t =
  let a = attempted t in
  if a = 0 then 1.0 else float_of_int (failed t) /. float_of_int a

let first_failure t = Atomic.get t.first
