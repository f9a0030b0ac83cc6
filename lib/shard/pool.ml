type state = {
  mutable job : (int -> unit) option;
  mutable generation : int;
  mutable pending : int;
  mutable failure : (int * exn) option; (* lowest worker index wins *)
  mutable stopping : bool;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
}

type t = {
  size : int;
  st : state;
  domains : unit Domain.t array;
}

let worker_loop st w =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock st.mutex;
    while st.generation = !seen && not st.stopping do
      Condition.wait st.work_ready st.mutex
    done;
    if st.stopping then Mutex.unlock st.mutex
    else begin
      seen := st.generation;
      let job =
        match st.job with
        | Some job -> job
        | None -> invalid_arg "Shard.Pool: work signalled with no job installed"
      in
      Mutex.unlock st.mutex;
      let outcome = try Ok (job w) with e -> Error e in
      Mutex.lock st.mutex;
      (match outcome with
      | Ok () -> ()
      | Error e -> (
        match st.failure with
        | Some (w0, _) when w0 <= w -> ()
        | _ -> st.failure <- Some (w, e)));
      st.pending <- st.pending - 1;
      if st.pending = 0 then Condition.signal st.work_done;
      Mutex.unlock st.mutex;
      loop ()
    end
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  let st =
    {
      job = None;
      generation = 0;
      pending = 0;
      failure = None;
      stopping = false;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
    }
  in
  let doms = Array.init domains (fun w -> Domain.spawn (fun () -> worker_loop st w)) in
  { size = domains; st; domains = doms }

let size t = t.size

let run t job =
  let st = t.st in
  Mutex.lock st.mutex;
  if st.stopping then begin
    Mutex.unlock st.mutex;
    invalid_arg "Pool.run: pool is shut down"
  end;
  st.job <- Some job;
  st.generation <- st.generation + 1;
  st.pending <- t.size;
  Condition.broadcast st.work_ready;
  while st.pending > 0 do
    Condition.wait st.work_done st.mutex
  done;
  let failure = st.failure in
  st.failure <- None;
  st.job <- None;
  Mutex.unlock st.mutex;
  match failure with None -> () | Some (_, e) -> raise e

let shutdown t =
  let st = t.st in
  Mutex.lock st.mutex;
  if not st.stopping then begin
    st.stopping <- true;
    Condition.broadcast st.work_ready
  end;
  Mutex.unlock st.mutex;
  Array.iter Domain.join t.domains

let with_pool ~domains f =
  let pool = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
