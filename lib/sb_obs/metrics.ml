type counter = { c_name : string; count : int Atomic.t }
type gauge = { g_name : string; value : float Atomic.t }

type histogram = {
  h_name : string;
  h_lock : Mutex.t;      (* guards every mutable field below *)
  counts : int array;    (* length = Array.length bounds + 1 (overflow) *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

(* Counters and gauges are atomics (workers update them lock-free);
   histograms take their own small mutex per observation; the registry
   itself is guarded by [reg_lock]. Interning from worker domains is
   therefore safe: call sites register on first use, from whichever
   domain runs first. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let reg_lock = Mutex.create ()
let on = ref false
let set_enabled b = on := b
let enabled () = !on

let locked f =
  Mutex.lock reg_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_lock) f

let intern name make select =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match select m with
          | Some x -> x
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %S already registered with another type" name))
      | None ->
          let x = make () in
          x)

let counter name =
  intern name
    (fun () ->
      let c = { c_name = name; count = Atomic.make 0 } in
      Hashtbl.replace registry name (Counter c);
      c)
    (function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = if !on then ignore (Atomic.fetch_and_add c.count by)
let counter_value c = Atomic.get c.count

let read_counter name =
  match locked (fun () -> Hashtbl.find_opt registry name) with
  | Some (Counter c) -> Atomic.get c.count
  | Some (Gauge _ | Histogram _) | None -> 0

let on_first_use register =
  let cache = Atomic.make None in
  fun () ->
    if not !on then None
    else
      match Atomic.get cache with
      | Some _ as h -> h
      | None ->
          let h = Some (register ()) in
          Atomic.set cache h;
          h

let gauge name =
  intern name
    (fun () ->
      let g = { g_name = name; value = Atomic.make 0.0 } in
      Hashtbl.replace registry name (Gauge g);
      g)
    (function Gauge g -> Some g | _ -> None)

let set g v = if !on then Atomic.set g.value v
let gauge_value g = Atomic.get g.value

(* Every histogram's inclusive upper bounds: 1-2-5 decades from 1 to
   5e8 — a good fit for microsecond-scale durations and message counts
   alike. *)
let bounds =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 2e4; 5e4; 1e5; 2e5; 5e5;
     1e6; 2e6; 5e6; 1e7; 2e7; 5e7; 1e8; 2e8; 5e8 |]

let histogram name =
  intern name
    (fun () ->
      let h =
        {
          h_name = name;
          h_lock = Mutex.create ();
          counts = Array.make (Array.length bounds + 1) 0;
          h_count = 0;
          h_sum = 0.0;
          h_min = Float.nan;
          h_max = Float.nan;
        }
      in
      Hashtbl.replace registry name (Histogram h);
      h)
    (function Histogram h -> Some h | _ -> None)

let bucket_index x =
  (* First bucket whose upper bound admits x; overflow otherwise. *)
  let n = Array.length bounds in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if x <= bounds.(mid) then bsearch lo mid else bsearch (mid + 1) hi
  in
  bsearch 0 n

let observe h x =
  if !on then begin
    let i = bucket_index x in
    Mutex.lock h.h_lock;
    h.counts.(i) <- h.counts.(i) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. x;
    if Float.is_nan h.h_min || x < h.h_min then h.h_min <- x;
    if Float.is_nan h.h_max || x > h.h_max then h.h_max <- x;
    Mutex.unlock h.h_lock
  end

let quantile_unlocked h q =
  if h.h_count = 0 then Float.nan
  else begin
    let target = q *. float_of_int h.h_count in
    let nb = Array.length bounds in
    let i = ref 0 and cum = ref 0 in
    while !i < nb && float_of_int (!cum + h.counts.(!i)) < target do
      cum := !cum + h.counts.(!i);
      i := !i + 1
    done;
    let i = !i in
    let lower = if i = 0 then 0.0 else bounds.(i - 1) in
    let upper = if i = nb then h.h_max else bounds.(i) in
    let in_bucket = h.counts.(i) in
    let est =
      if in_bucket = 0 then upper
      else
        let frac = (target -. float_of_int !cum) /. float_of_int in_bucket in
        lower +. ((upper -. lower) *. Float.min 1.0 (Float.max 0.0 frac))
    in
    Float.min h.h_max (Float.max h.h_min est)
  end

type histogram_stats = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let stats h =
  Mutex.lock h.h_lock;
  let s =
    {
      count = h.h_count;
      sum = h.h_sum;
      mean = (if h.h_count = 0 then Float.nan else h.h_sum /. float_of_int h.h_count);
      min = h.h_min;
      max = h.h_max;
      p50 = quantile_unlocked h 0.5;
      p95 = quantile_unlocked h 0.95;
    }
  in
  Mutex.unlock h.h_lock;
  s

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.count 0
          | Gauge g -> Atomic.set g.value 0.0
          | Histogram h ->
              Mutex.lock h.h_lock;
              Array.fill h.counts 0 (Array.length h.counts) 0;
              h.h_count <- 0;
              h.h_sum <- 0.0;
              h.h_min <- Float.nan;
              h.h_max <- Float.nan;
              Mutex.unlock h.h_lock)
        registry)

let sorted_metrics () =
  locked (fun () -> Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_table () =
  let table =
    Sb_util.Tabular.create ~title:"metrics"
      ~columns:[ "name"; "kind"; "count/value"; "mean"; "p50"; "p95"; "max" ]
  in
  let fl x = if Float.is_nan x then "-" else Sb_util.Tabular.cell_float ~digits:2 x in
  List.iter
    (fun (_, m) ->
      match m with
      | Counter c ->
          Sb_util.Tabular.add_row table
            [ c.c_name; "counter"; string_of_int (Atomic.get c.count); "-"; "-"; "-"; "-" ]
      | Gauge g ->
          Sb_util.Tabular.add_row table
            [ g.g_name; "gauge"; fl (Atomic.get g.value); "-"; "-"; "-"; "-" ]
      | Histogram h ->
          let s = stats h in
          Sb_util.Tabular.add_row table
            [ h.h_name; "histogram"; string_of_int s.count; fl s.mean; fl s.p50; fl s.p95; fl s.max ])
    (sorted_metrics ());
  table

let to_json () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> counters := (name, Json.Int (Atomic.get c.count)) :: !counters
      | Gauge g -> gauges := (name, Json.Float (Atomic.get g.value)) :: !gauges
      | Histogram h ->
          let s = stats h in
          histograms :=
            ( name,
              Json.Obj
                [
                  ("count", Json.Int s.count);
                  ("sum", Json.Float s.sum);
                  ("mean", Json.Float s.mean);
                  ("min", Json.Float s.min);
                  ("max", Json.Float s.max);
                  ("p50", Json.Float s.p50);
                  ("p95", Json.Float s.p95);
                ] )
            :: !histograms)
    (sorted_metrics ());
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !histograms));
    ]
