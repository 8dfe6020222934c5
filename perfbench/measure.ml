let now_ns () = Monotonic_clock.now ()
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let instruments_off () =
  not
    (Obs.Trace.on () || Obs.Metrics.on () || Obs.Telemetry.on ()
   || Obs.Timing.on ())

let run_for ~seconds ~min ?(max = max_int) f =
  let t0 = now_ns () in
  let rec go acc k =
    if (k >= min && since_s t0 >= seconds) || k >= max then List.rev acc
    else go (f () :: acc) (k + 1)
  in
  go [] 0

let repeat f = Array.of_list (run_for ~seconds:3. ~min:10 ~max:10_000 f)

let timed ~on f k =
  if on then begin
    let w0 = alloc_words () in
    let t0 = now_ns () in
    let v = f () in
    k (Int64.to_float (Int64.sub (now_ns ()) t0)) (alloc_words () -. w0);
    v
  end
  else f ()

let trace_overhead pass =
  let wall clocked =
    let t0 = now_ns () in
    let v = pass ~clocked in
    (v, since_s t0)
  in
  ignore (pass ~clocked:false);
  let _, u1 = wall false in
  let v, t1 = wall true in
  let _, t2 = wall true in
  let _, u2 = wall false in
  (v, (((t1 /. u1) +. (t2 /. u2)) /. 2.) -. 1., [ u1; t1; t2; u2 ])

let per n x = if n = 0 then 0. else x /. float_of_int n
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let quantile samples q =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median samples = quantile samples 0.5
let lowest samples = quantile samples 0.

let spread samples =
  if Array.length samples < 2 then 0.
  else
    let m = median samples in
    if m = 0. then 0. else (quantile samples 0.75 -. quantile samples 0.25) /. m

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> string_of_bool b
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
      ^ "}"

let samples n spread_ = Obj [ ("samples", Int n); ("spread", Num spread_) ]
