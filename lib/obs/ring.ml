(* A fixed circular buffer under one mutex.  A saturated ring must stay
   O(1) per push: a traced server closes one root per request, and an
   earlier list-based trim that rebuilt every cell once full measured
   as double-digit overhead (E18).  The cell array is allocated by the
   first push, which supplies its filler, so storing a record allocates
   nothing. *)

type key = Sink | Tap of string

type 'a t = {
  lock : Mutex.t;
  mutable capacity : int;
  mutable cells : 'a array; (* [||] while empty, else [capacity] cells *)
  mutable next : int; (* the cell the next push writes *)
  mutable length : int;
  mutable seen : int;
  mutable observers : (key * ('a -> unit)) list; (* the sink first *)
}

let check_capacity fn n =
  if n < 1 then invalid_arg ("Obs.Ring." ^ fn ^ ": capacity < 1")

let create capacity =
  check_capacity "create" capacity;
  { lock = Mutex.create (); capacity; cells = [||]; next = 0; length = 0;
    seen = 0; observers = [] }

let locked r f =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

(* Call with the lock held; returns the observers to run once it is
   released. *)
let store r x =
  if Array.length r.cells = 0 then
    r.cells <- Array.make r.capacity x;
  r.cells.(r.next) <- x;
  r.next <- (if r.next + 1 = r.capacity then 0 else r.next + 1);
  if r.length < r.capacity then r.length <- r.length + 1;
  r.seen <- r.seen + 1;
  r.observers

(* Not [List.iter]: its closure would cost every push an allocation. *)
let rec notify x = function
  | [] -> ()
  | (_, f) :: rest ->
    f x;
    notify x rest

let push r make =
  Mutex.lock r.lock;
  let x = make r.seen in
  let observers = store r x in
  Mutex.unlock r.lock;
  notify x observers;
  x

let add r x =
  Mutex.lock r.lock;
  let observers = store r x in
  Mutex.unlock r.lock;
  notify x observers

(* The [n] newest records, oldest first; call with the lock held. *)
let newest r n =
  let cap = Array.length r.cells in
  List.init n (fun i -> r.cells.((r.next - n + i + cap) mod cap))

let to_list r = locked r (fun () -> newest r r.length)
let length r = locked r (fun () -> r.length)
let seen r = locked r (fun () -> r.seen)
let dropped r = locked r (fun () -> r.seen - r.length)
let capacity r = r.capacity

let set_capacity r n =
  check_capacity "set_capacity" n;
  locked r @@ fun () ->
  let kept = newest r (min n r.length) in
  r.cells <- (match kept with [] -> [||] | x :: _ -> Array.make n x);
  List.iteri (fun i x -> r.cells.(i) <- x) kept;
  r.capacity <- n;
  r.length <- List.length kept;
  r.next <- r.length mod n

let clear r =
  locked r @@ fun () ->
  r.cells <- [||];
  r.next <- 0;
  r.length <- 0;
  r.seen <- 0

let observe r key f =
  locked r @@ fun () ->
  let rest = List.filter (fun (k, _) -> k <> key) r.observers in
  r.observers <-
    (match (f, key) with
     | None, _ -> rest
     | Some f, Sink -> (Sink, f) :: rest
     | Some f, Tap _ -> rest @ [ (key, f) ])

let set_sink r f = observe r Sink f
let set_tap r ~name f = observe r (Tap name) f
