(* The closed loop shared by every workload: one client issues the next
   op as soon as the previous one returns, cycling through the
   workload's op list, until the time budget (or, for the self-check,
   the op count) is spent. *)

type budget = Seconds of float | Ops of int

(* The speed of a shared machine drifts by tens of percent within
   seconds.  A fixed reference computation, the probe, is timed after an
   op whenever [probe_every] seconds have passed since the last one, and
   the times measured since the previous probe are scaled to the
   reference speed at which the probe takes [reference_probe_ms]:
   reported ms = measured ms * reference_probe_ms / probe ms.
   The probe updates a 512 KB buffer outside the OCaml heap at random
   and allocates nothing, so the heap and the collector cannot change its
   cost.  It first reads the whole buffer, untimed, so that the timed
   part starts with the buffer in cache whatever the op before it left
   there: the program's cache footprint cannot change its cost either.
   What is left is the speed of the processor and its caches at that
   moment.  A register-only loop would see the processor's clock alone,
   while the slow periods of a shared machine slow memory accesses more
   than arithmetic. *)
let reference_probe_ms = 1.0

let probe_every = 0.02

(* Ops are scaled by the median of the probes of the last
   [probe_window] seconds, so that one probe that ran unusually fast or
   slow does not scale the ops before it alone: at the tail of the
   distribution, such ops would set the p99.  Ops longer than the window
   (farm passes) are scaled by the probe that follows them. *)
let probe_window = 0.1

let probe_buf = Bigarray.(Array1.create int c_layout 65536)

let () = Bigarray.Array1.fill probe_buf 0

let probe () =
  let warm = ref 0 in
  for j = 0 to Bigarray.Array1.dim probe_buf - 1 do
    warm := !warm + probe_buf.{j}
  done;
  ignore (Sys.opaque_identity !warm);
  let t0 = Unix.gettimeofday () in
  let x = ref 1 in
  for _ = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 65535 in
    probe_buf.{j} <- probe_buf.{j} + !x
  done;
  (Unix.gettimeofday () -. t0) *. 1e3

let factor () = reference_probe_ms /. probe ()

(* Nearest-rank percentile of an unsorted array ([nan] when empty). *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
  end

let median xs = percentile 0.5 xs

(* A timed run is cut into [nrounds] rounds of equal length; the
   end-to-end metrics are medians over rounds. *)
let nrounds = 5

type round = {
  r_samples : float array;  (** Reference-speed ms per input unit, untraced ops. *)
  r_attempted : int;
  r_wall : float;
      (** Reference-speed wall-clock seconds of the round, the probes'
          time excepted. *)
}

type result = {
  rounds : round array;
  samples : float array;  (** Reference-speed ms per input unit, untraced ops. *)
  traced_samples : float array;  (** The same, for traced ops. *)
  raw_p50 : float;  (** Measured ms per input unit, untraced ops. *)
  raw_ops_per_s : float;
      (** Input units per measured wall-clock second, median over rounds. *)
  probe_ms : float;  (** Median probe time over the run. *)
  peak_heap_mb : float;  (** Top of the major heap after [heap_at] ops. *)
  ops : int;  (** Ops run in the timed region. *)
  attempted : int;  (** Input units attempted (programs for the farm). *)
  failed : int;
  wall_s : float;
  failures : string list;  (** The first few failure messages. *)
}

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* In a traced run every other op is traced, alternating the parity per
   cycle so that each input is traced on every second visit whatever the
   cycle length.  Comparing the two halves gives the tracing overhead. *)
let traced ~nops k = ((k mod nops) + (k / nops)) mod 2 = 1

let warmup_s = 2.0

(* [run ~budget ~warmup ~heap_at ~nops ~size op] runs [warmup] untimed
   ops, then timed ops [op i] for the following indices, and reads the
   top of the major heap after [heap_at] timed ops (or at the end, if
   the run is shorter): the heap of a daemon that caches every request
   grows with the op count, and a fixed count keeps the reading
   independent of the machine's speed.  Each op covers
   [size] input units and returns the failure messages of the units that
   failed; an exception fails every unit of the op. *)
let run ?tracer ~budget ~warmup ~heap_at ~nops ~size op =
  let call i =
    match op i with
    | bad -> (List.length bad, bad)
    | exception e -> (size, [ Printexc.to_string e ])
  in
  (* Warm-up: [warmup] ops, then in a timed run the probe until
     [warmup_s] seconds have passed, so that the processor has left any
     idle state before the first timed op.  The op count is fixed so that
     every run of a seed reaches the timed region in the same state. *)
  let t_warm = Unix.gettimeofday () in
  for i = 0 to warmup - 1 do
    ignore (call i)
  done;
  (* Probe times of the last [probe_window] seconds, newest first, as
     (end, ms). *)
  let recent = ref [] in
  let observe () =
    let p = probe () in
    let now = Unix.gettimeofday () in
    recent := (now, p) :: List.filter (fun (t, _) -> now -. t < probe_window) !recent;
    p
  in
  (match budget with
  | Seconds _ ->
      while Unix.gettimeofday () -. t_warm < warmup_s do
        ignore (observe ())
      done
  | Ops _ -> ());
  let probes = ref [] and last_probe = ref (Unix.gettimeofday ()) in
  (* The end of the previous op, or of the probe that followed it: the
     wall-clock time between it and the end of the next op is that op's
     share of the round. *)
  let last_end = ref !last_probe in
  (* Ops since the last probe, as (round, measured op seconds, measured
     wall-clock seconds, traced). *)
  let pending = ref [] in
  let samples = ref [] and traced_samples = ref [] and raw = ref [] in
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  let r_attempted = Array.make nrounds 0
  and r_wall = Array.make nrounds 0.
  and r_raw_wall = Array.make nrounds 0. in
  let settle () =
    probes := observe () :: !probes;
    last_probe := Unix.gettimeofday ();
    last_end := !last_probe;
    let f = reference_probe_ms /. median (Array.of_list (List.map snd !recent)) in
    List.iter
      (fun (r, dt, wall, on) ->
        let ms = dt *. 1e3 /. float_of_int size in
        r_wall.(r) <- r_wall.(r) +. (wall *. f);
        if on then traced_samples := (ms *. f) :: !traced_samples
        else begin
          samples := (r, ms *. f) :: !samples;
          raw := ms :: !raw
        end)
      !pending;
    pending := []
  in
  let start = Unix.gettimeofday () in
  last_end := start;
  let k = ref 0 and heap = ref 0. in
  let round t0 =
    min (nrounds - 1)
      (match budget with
      | Seconds s -> int_of_float ((t0 -. start) /. (s /. float_of_int nrounds))
      | Ops n -> !k * nrounds / max 1 n)
  in
  let continue () =
    match budget with
    | Seconds s -> Unix.gettimeofday () -. start < s
    | Ops n -> !k < n
  in
  while continue () do
    let on =
      match tracer with
      | Some tr ->
          let on = traced ~nops !k in
          tr.Trace.enabled <- on;
          tr.Trace.op <- !k;
          on
      | None -> false
    in
    let t0 = Unix.gettimeofday () in
    let nbad, bad = call (warmup + !k) in
    let t1 = Unix.gettimeofday () in
    let r = round t0 in
    r_attempted.(r) <- r_attempted.(r) + size;
    r_raw_wall.(r) <- r_raw_wall.(r) +. (t1 -. !last_end);
    pending := (r, t1 -. t0, t1 -. !last_end, on) :: !pending;
    last_end := t1;
    if t1 -. !last_probe > probe_every then settle ();
    attempted := !attempted + size;
    failed := !failed + min size nbad;
    failures := List.filteri (fun j _ -> j < 5) (!failures @ bad);
    incr k;
    if !k = heap_at then heap := top_heap_mb ()
  done;
  if !pending <> [] then settle ();
  if !k < heap_at then heap := top_heap_mb ();
  let wall_s = Unix.gettimeofday () -. start in
  Option.iter (fun tr -> tr.Trace.enabled <- false) tracer;
  let samples = List.rev !samples in
  let rounds =
    Array.init nrounds (fun r ->
        {
          r_samples =
            Array.of_list
              (List.filter_map (fun (r', ms) -> if r = r' then Some ms else None) samples);
          r_attempted = r_attempted.(r);
          r_wall = r_wall.(r);
        })
  in
  let per_round f =
    Array.to_list (Array.init nrounds f) |> List.filter Float.is_finite |> Array.of_list
    |> median
  in
  {
    rounds;
    samples = Array.of_list (List.map snd samples);
    traced_samples = Array.of_list (List.rev !traced_samples);
    raw_p50 = median (Array.of_list !raw);
    raw_ops_per_s = per_round (fun r -> float_of_int r_attempted.(r) /. r_raw_wall.(r));
    peak_heap_mb = !heap;
    probe_ms = median (Array.of_list !probes);
    ops = !k;
    attempted = !attempted;
    failed = !failed;
    wall_s;
    failures = !failures;
  }

(* Set-up is repeated and its median reported, so that a single slow
   set-up does not decide it: at least [min_setups] times, and while
   less than [setup_budget_s] has passed, at most [max_setups] times. *)
let min_setups = 5

let max_setups = 50

let setup_budget_s = 1.0

(* Run [f] as above; return the last result and the median duration in
   reference-speed seconds (each run scaled by a probe taken right after
   it). *)
let repeat_timed f =
  let times = ref [] and last = ref None in
  let t_start = Unix.gettimeofday () in
  while
    let n = List.length !times in
    n < min_setups
    || (n < max_setups && Unix.gettimeofday () -. t_start < setup_budget_s)
  do
    let t0 = Unix.gettimeofday () in
    last := Some (f ());
    let dt = Unix.gettimeofday () -. t0 in
    times := (dt *. factor ()) :: !times
  done;
  (Option.get !last, median (Array.of_list !times))
