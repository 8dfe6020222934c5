(* The state is four 64-bit words held in 32 bytes rather than four
   mutable [int64] fields: storing an [int64] into a record field boxes
   it, so each draw allocated four boxes, and on a generator already in
   the major heap every one of them survived the next minor collection.
   The bytes accessors read and write the words unboxed. *)
type t = Bytes.t

let get t i = Bytes.get_int64_ne t (i * 8)
let set t i v = Bytes.set_int64_ne t (i * 8) v

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let of_state (s0, s1, s2, s3) =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state";
  make s0 s1 s2 s3

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* SplitMix64 output is never all-zero across four consecutive draws for
     any seed in practice, but guard anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then make 1L s1 s2 s3
  else make s0 s1 s2 s3

let copy = Bytes.copy

let next t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 1 s1;
  set t 2 (Int64.logxor s2 tmp);
  set t 3 (rotl s3 45);
  result

let next_int_in t bound =
  if bound <= 0 then invalid_arg "Xoshiro256.next_int_in: bound must be positive";
  let mask =
    let rec widen m = if m >= bound - 1 then m else widen ((m lsl 1) lor 1) in
    widen 1
  in
  let rec draw () =
    let candidate = Int64.to_int (Int64.shift_right_logical (next t) 2) land mask in
    if candidate < bound then candidate else draw ()
  in
  draw ()

let next_float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let next_bool t = Int64.compare (next t) 0L < 0

(* Jump polynomial from the reference implementation: advances 2^128 steps. *)
let jump_table = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then begin
          s0 := Int64.logxor !s0 (get t 0);
          s1 := Int64.logxor !s1 (get t 1);
          s2 := Int64.logxor !s2 (get t 2);
          s3 := Int64.logxor !s3 (get t 3)
        end;
        ignore (next t)
      done)
    jump_table;
  set t 0 !s0;
  set t 1 !s1;
  set t 2 !s2;
  set t 3 !s3
