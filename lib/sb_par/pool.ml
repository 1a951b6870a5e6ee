type task = unit -> unit

type t = {
  domains : int;
  mutable workers : unit Domain.t array;
  queue : task Queue.t;
  mutex : Mutex.t;
  has_work : Condition.t;
  mutable closed : bool;
}

(* Which pool slot the current domain occupies: 0 is the submitting
   domain (which also drains the queue during a barrier), 1 .. domains-1
   are spawned workers. Used by callers to key per-domain accounting. *)
let ix_key = Domain.DLS.new_key (fun () -> 0)
let worker_index () = Domain.DLS.get ix_key

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.has_work t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    (* Tasks are wrapped by [map_chunks] and never raise. *)
    task ();
    worker_loop t
  end

let create ?domains () =
  let domains =
    match domains with
    | Some d -> if d <= 0 then invalid_arg "Pool.create: domains must be positive" else d
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let t =
    {
      domains;
      workers = [||];
      queue = Queue.create ();
      mutex = Mutex.create ();
      has_work = Condition.create ();
      closed = false;
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun k ->
        Domain.spawn (fun () ->
            Domain.DLS.set ix_key (k + 1);
            worker_loop t));
  t

let size t = t.domains

let shutdown t =
  Mutex.lock t.mutex;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  if not was_closed then Array.iter Domain.join t.workers;
  t.workers <- [||]

let map_chunks t ~f arr =
  let n = Array.length arr in
  if t.closed then invalid_arg "Pool.map_chunks: pool is shut down";
  if n = 0 then [||]
  else if t.domains = 1 || n = 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let remaining = ref n in
    let all_done = Condition.create () in
    let task i () =
      let r =
        try Ok (f arr.(i)) with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.mutex;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.has_work;
    (* The submitting domain drains the queue alongside the workers,
       then blocks until the last in-flight task lands. *)
    let rec drain () =
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.mutex;
          task ();
          Mutex.lock t.mutex;
          drain ()
      | None -> while !remaining > 0 do Condition.wait all_done t.mutex done
    in
    drain ();
    Mutex.unlock t.mutex;
    (* Re-raise the lowest-index failure so error reporting does not
       depend on scheduling. *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

(* --- process-default pool ------------------------------------------- *)

let default_domains = ref (max 1 (Domain.recommended_domain_count ()))
let default_pool : t option ref = ref None

let shutdown_default () =
  match !default_pool with
  | Some p ->
      default_pool := None;
      shutdown p
  | None -> ()

let () = at_exit shutdown_default

let set_default_domains d =
  if d <= 0 then invalid_arg "Pool.set_default_domains: must be positive";
  (match !default_pool with
  | Some p when p.domains <> d -> shutdown_default ()
  | _ -> ());
  default_domains := d

let get_default_domains () = !default_domains

let default () =
  match !default_pool with
  | Some p when not p.closed -> p
  | _ ->
      let p = create ~domains:!default_domains () in
      default_pool := Some p;
      p
