(* Permission-equivalence classes (see Perm.profile): users whose
   applicable rules are identical and $USER-free provably resolve to the
   same decision store and the same visibility — so the server keeps ONE
   shared state per class (the representative session + lazy view) and
   a thin per-user handle.  Logins, broadcast rebases and memory all
   scale with the number of distinct permission profiles, not the number
   of sessions.  Users with a $USER rule form singleton classes and
   behave exactly as before.  No class holds a materialised view: reads
   and the first document op of a class member's batch both run on the
   lazy view. *)

type shared = {
  profile : string;
  mutable rep : Session.t;
      (* representative session (source + decisions, no view); its
         identity is the first member that created the class (member
         handles impersonate it on demand) *)
  mutable lazy_view : Lazy_view.t;
      (* the class's view: the published snapshot with the rep's
         decisions and, once a read or a write needed it, its
         visibility oracle *)
  mutable members : int;
}

type entry = { user : string; cls : shared }

type t = {
  mutable policy : Policy.t;
      (* the current policy; rewritten (under the lock, together with the
         class table re-key) by every committed batch that carries policy
         ops *)
  mutable index : Policy.index;
      (* [policy]'s rule index, rebuilt with it under the lock; an index
         never changes, so pool workers share it *)
  mutable clock : int;
      (* administration timestamp allocator (paper §4.3: priorities ARE
         timestamps).  Monotonic and never reused, even across retracts
         and aborted batches — a recycled priority would collide in
         Perm.profile strings and Rulestats keys *)
  mutable source : Xmldoc.Document.t;
  mutable flat : Xmldoc.Flat.t;
      (* frozen columnar snapshot of [source], republished with it on
         every commit (epoch-style): readers fold the arrays, the writer
         path mutates the map-backed store and freezes once per batch *)
  writer : Mutex.t;
      (* held for the whole of every commit, login and logout: one writer
         at a time, so every class is on the published epoch whenever no
         writer runs *)
  lock : Mutex.t;
      (* the short table lock readers take.  Only a writer changes
         [sessions], [classes] and the published fields, always under
         [lock] too, so the writer reads them without it; [plans] is
         the readers' own *)
  sessions : (string, entry) Hashtbl.t;
  classes : (string, shared) Hashtbl.t;  (* Perm.profile -> shared state *)
  plans : (string, Rewrite.t) Hashtbl.t;
      (* query text -> compiled rewrite; plans are user- and
         policy-independent, so one cache serves every session *)
  mutable writes : int;
  pool : Pool.t;
  persist : Store.t option;
      (* write-ahead journal: every committed batch is appended before it
         becomes visible to readers *)
}

(* Server-level instrumentation; per-stage spans come from Session,
   Secure_update and Lazy_view. *)
let m_queries =
  Obs.Metrics.counter Obs.Metrics.default "serve_queries_total"
    ~help:"Queries served on lazy views"

let m_updates =
  Obs.Metrics.counter Obs.Metrics.default "serve_updates_total"
    ~help:"Secure updates applied through the server"

let m_fanout =
  Obs.Metrics.counter Obs.Metrics.default "serve_broadcast_sessions_total"
    ~help:"Per-class delta rebases caused by broadcasts"

let m_rebase_incremental =
  Obs.Metrics.counter Obs.Metrics.default "serve_rebase_incremental_total"
    ~help:"Broadcast rebases that stayed delta-scoped (policy-local)"

let m_rebase_full =
  Obs.Metrics.counter Obs.Metrics.default "serve_rebase_full_total"
    ~help:"Broadcast rebases widened to a full refresh (non-local rules)"

let h_query =
  Obs.Metrics.histogram Obs.Metrics.default "serve_query_seconds"
    ~help:"End-to-end query latency (parse + lazy evaluation)"

let h_update =
  Obs.Metrics.histogram Obs.Metrics.default "serve_update_seconds"
    ~help:"End-to-end update latency (secure apply + broadcast)"

let h_broadcast =
  Obs.Metrics.histogram Obs.Metrics.default "serve_broadcast_seconds"
    ~help:"Broadcast fan-out latency (all non-writer rebases)"

let g_sessions =
  Obs.Metrics.gauge Obs.Metrics.default "serve_sessions"
    ~help:"Currently logged-in sessions"

let g_classes =
  Obs.Metrics.gauge Obs.Metrics.default "serve_permission_classes"
    ~help:"Distinct permission-equivalence classes among logged sessions"

let g_document_nodes =
  Obs.Metrics.gauge Obs.Metrics.default "document_nodes"
    ~help:"Nodes in the published source snapshot (document node included)"

let g_flat_bytes =
  Obs.Metrics.gauge Obs.Metrics.default "flat_bytes"
    ~help:"Approximate heap footprint of the published columnar snapshot"

let m_flat_freezes =
  Obs.Metrics.counter Obs.Metrics.default "flat_freezes_total"
    ~help:"Columnar snapshots frozen (one per server start or committed batch)"

let m_class_splits =
  Obs.Metrics.counter Obs.Metrics.default "serve_class_splits_total"
    ~help:"Permission-equivalence classes split by policy churn \
           (one old class fed several new profiles)"

let m_class_merges =
  Obs.Metrics.counter Obs.Metrics.default "serve_class_merges_total"
    ~help:"Permission-equivalence classes merged by policy churn \
           (several old classes collapsed into one profile)"

let locked t f = Mutex.protect t.lock f

(* Call with the lock held (or from single-threaded setup paths). *)
let sync_gauges t =
  Obs.Metrics.set_gauge g_sessions (float (Hashtbl.length t.sessions));
  Obs.Metrics.set_gauge g_classes (float (Hashtbl.length t.classes))

(* [from] is the published snapshot together with the roots of the delta
   that leads from its document to [source]: the new snapshot is then
   spliced from it at the cost of the delta; otherwise [source] is frozen
   whole. *)
let freeze ?from source =
  let flat =
    Obs.Trace.with_span "flat.freeze" (fun () ->
        match from with
        | Some (flat, roots) -> Xmldoc.Flat.splice flat source ~roots
        | None -> Xmldoc.Flat.of_document source)
  in
  Obs.Metrics.inc m_flat_freezes;
  Obs.Metrics.set_gauge g_document_nodes (float (Xmldoc.Flat.size flat));
  Obs.Metrics.set_gauge g_flat_bytes (float (Xmldoc.Flat.bytes flat));
  flat

let create ?pool ?persist policy source =
  let pool = match pool with Some p -> p | None -> Pool.of_env () in
  {
    policy;
    index = Policy.index policy;
    clock = Policy.next_priority policy;
    source;
    flat = freeze source;
    writer = Mutex.create ();
    lock = Mutex.create ();
    sessions = Hashtbl.create 8;
    classes = Hashtbl.create 8;
    plans = Hashtbl.create 8;
    writes = 0;
    pool;
    persist;
  }

let pool t = t.pool
let persist t = t.persist

let check_known t ~user =
  if not (Subject.mem (Policy.subjects t.policy) user) then
    raise (Session.Unknown_user user)

(* With the writer held: a class on the published epoch. *)
let fresh_shared t ~profile ~user =
  let rep = Session.login ~flat:t.flat t.policy t.source ~user in
  if Obs.Rulestats.enabled () then
    Obs.Rulestats.note_class ~profile
      ~keys:
        (List.map
           (fun (r : Rule.t) -> r.Rule.priority)
           (Policy.rules_for t.policy ~user));
  { profile; rep; lazy_view = Lazy_view.of_session t.flat rep; members = 0 }

(* Call with the lock held: binds [user] to its class (which must be in
   [t.classes]). *)
let register t ~user cls =
  cls.members <- cls.members + 1;
  if Obs.Rulestats.enabled () then
    Obs.Rulestats.note_member ~profile:cls.profile;
  Hashtbl.replace t.sessions user { user; cls }

(* Login-time fan-out, with the writer held: conflict resolution
   ([Perm.compute], inside [Session.login]) is the expensive part and is
   needed once per NEW permission class, not once per user —
   representative logins run on the pool, then every fresh user binds to
   its class under the lock.  All-or-nothing: if any representative
   login raises, no fresh session from this batch is registered. *)
let login_held t users =
  let fresh =
    List.filter
      (fun u -> not (Hashtbl.mem t.sessions u))
      (List.sort_uniq String.compare users)
  in
  List.iter (fun user -> check_known t ~user) fresh;
  let profiles =
    List.map (fun u -> (u, Perm.profile t.policy ~user:u)) fresh
  in
  let need =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (_, p) ->
        if Hashtbl.mem t.classes p || Hashtbl.mem seen p then false
        else begin
          Hashtbl.add seen p ();
          true
        end)
      profiles
  in
  let built =
    Pool.map t.pool (fun (user, profile) -> fresh_shared t ~profile ~user) need
  in
  locked t (fun () ->
      List.iter (fun cls -> Hashtbl.replace t.classes cls.profile cls) built;
      List.iter
        (fun (user, profile) ->
          register t ~user (Hashtbl.find t.classes profile))
        profiles;
      sync_gauges t)

let login_many t users = Mutex.protect t.writer (fun () -> login_held t users)

let login t ~user = login_many t [ user ]

let logout t ~user =
  Mutex.protect t.writer @@ fun () ->
  locked t (fun () ->
      (match Hashtbl.find_opt t.sessions user with
       | Some e ->
         Hashtbl.remove t.sessions user;
         e.cls.members <- e.cls.members - 1;
         if e.cls.members <= 0 then Hashtbl.remove t.classes e.cls.profile
       | None -> ());
      sync_gauges t)

let users t =
  List.sort String.compare
    (locked t (fun () ->
         Hashtbl.fold (fun user _ acc -> user :: acc) t.sessions []))

let classes t = locked t (fun () -> Hashtbl.length t.classes)

let source t = t.source
let policy t = t.policy
let writes t = t.writes

(* Administration timestamps: the next unused priority, never recycled.
   Reading [Policy.next_priority] alone would not do — after a retract
   the policy's max priority drops, and reissuing a spent timestamp
   would violate the paper's total recency order (and collide in
   Perm.profile strings and Rulestats keys). *)
let fresh_priority t =
  locked t (fun () ->
      let p = max t.clock (Policy.next_priority t.policy) in
      t.clock <- p + 1;
      p)

(* With the writer held: the user's entry, logging them in first. *)
let entry_held t ~user =
  match Hashtbl.find_opt t.sessions user with
  | Some e -> e
  | None ->
    login_held t [ user ];
    Hashtbl.find t.sessions user

(* A logged-in user's read takes only the table lock; a first read logs
   the user in, as a writer. *)
let entry t ~user =
  match locked t (fun () -> Hashtbl.find_opt t.sessions user) with
  | Some e -> e
  | None -> Mutex.protect t.writer (fun () -> entry_held t ~user)

let session t ~user = Session.impersonate (entry t ~user).cls.rep ~user
let lazy_view t ~user = (entry t ~user).cls.lazy_view
let view t ~user = Session.view (session t ~user)

(* Compiled rewrite plans are keyed by query text and shared across every
   session: a downward plan cannot mention $USER and never depends on the
   policy (the visibility product happens at evaluation time). *)
let plan_for t q =
  match locked t (fun () -> Hashtbl.find_opt t.plans q) with
  | Some plan -> plan
  | None ->
    let plan =
      Obs.Trace.with_span "xpath.parse" (fun () -> Rewrite.plan_str q)
    in
    locked t (fun () ->
        match Hashtbl.find_opt t.plans q with
        | Some plan -> plan
        | None ->
          Hashtbl.replace t.plans q plan;
          plan)

(* Deciding rules over (a bounded prefix of) the answer set: which rules
   made what the query returned visible — the read grant, or, for an
   answer the view shows as RESTRICTED, the position grant (as
   {!Explain.visibility} reports it).  Bounded so a 100k-answer query
   costs at most [budget] answers' binary searches of telemetry
   overhead. *)
let deciding_rules_of perm ids ~budget =
  let seen = Hashtbl.create 8 in
  let deciding id =
    match Perm.deciding_rule perm Privilege.Read id with
    | Some (r : Rule.t) when r.Rule.decision = Rule.Accept -> Some r
    | Some _ | None -> Perm.deciding_rule perm Privilege.Position id
  in
  let rec go budget acc = function
    | [] -> List.rev acc
    | _ when budget <= 0 -> List.rev acc
    | id :: rest -> (
      match deciding id with
      | Some (r : Rule.t) when not (Hashtbl.mem seen r.Rule.priority) ->
        Hashtbl.add seen r.Rule.priority ();
        go (budget - 1) (r.Rule.notation :: acc) rest
      | _ -> go (budget - 1) acc rest)
  in
  go budget [] ids

let query t ~user q =
  Obs.Metrics.inc m_queries;
  Obs.Trace.with_span "serve.query" @@ fun () ->
  Obs.Trace.annotate "user" user;
  let t0 = Obs.Mono.now () in
  let e = entry t ~user in
  let plan = plan_for t q in
  let stats =
    if Obs.Planlog.enabled () then Some (Xpath.Compile.stats ()) else None
  in
  let ids =
    Obs.Trace.with_span "query.eval" (fun () ->
        Rewrite.select
          ~vars:[ ("USER", Xpath.Value.Str user) ]
          ?stats plan e.cls.lazy_view)
  in
  let seconds = Obs.Mono.now () -. t0 in
  Obs.Metrics.observe h_query seconds;
  if Obs.Timeseries.enabled () then
    Obs.Timeseries.observe Obs.Timeseries.default "query_seconds" seconds;
  let answers = lazy (List.length ids) in
  (match stats with
  | Some s ->
    ignore
      (Obs.Planlog.record ~user ~query:q
         ~compiled:(Rewrite.compiled plan) ~anchors:s.Xpath.Compile.anchors
         ~states:s.Xpath.Compile.states ~visited:s.Xpath.Compile.visited
         ~pruned:s.Xpath.Compile.pruned
         ~answers:(Lazy.force answers)
         ~rules:(deciding_rules_of (Session.perm e.cls.rep) ids ~budget:16)
         ~cls:e.cls.profile ~seconds)
  | None -> ());
  if Obs.Audit.enabled () then
    Obs.Audit.record Obs.Audit.default ~user ~action:"query" ~privilege:"read"
      ~target:q
      ~detail:
        (Printf.sprintf "%d node(s), %s path" (Lazy.force answers)
           (if Rewrite.compiled plan then "rewritten" else "fallback"))
      Obs.Audit.Allowed;
  ids

(* The one lazy-view rebase.  [delta] covers a class's decision changes
   only while its rules were downward before ([was]) and after ([now]):
   the oracle rests on the same locality argument as [Perm.update].  Any
   other class's view widens to the whole document. *)
let rebase_view ~was ~now lazy_view flat delta =
  let delta =
    if Session.policy_local was && Session.policy_local now then delta
    else Delta.all
  in
  Obs.Metrics.inc
    (match delta with
     | Delta.All -> m_rebase_full
     | Delta.Local _ -> m_rebase_incremental);
  Obs.Trace.with_span "lazy_view.rebase" (fun () ->
      Lazy_view.rebase lazy_view flat (Session.perm now) delta)

let rebase_class ?slot ?txn ?matched ~flat source delta cls =
  Obs.Metrics.inc m_fanout;
  Obs.Trace.with_span "session.rebase" @@ fun () ->
  (match slot with
   | Some slot -> Obs.Trace.annotate "domain" (string_of_int slot)
   | None -> ());
  let session = Session.apply_delta ~flat ?matched cls.rep source delta in
  let user = Session.user session in
  let mode =
    if Session.policy_local session then "incremental" else "full-refresh"
  in
  Obs.Trace.annotate "user" user;
  Obs.Trace.annotate "mode" mode;
  (* Pool workers run on other domains, where the ambient correlation id
     is absent — the writer's id travels explicitly. *)
  Obs.Events.emit ?txn (Obs.Events.Rebase { user; mode });
  cls.lazy_view <- rebase_view ~was:cls.rep ~now:session cls.lazy_view flat delta;
  cls.rep <- session

type committed = {
  reports : Secure_update.report list;
  delta : Delta.t;
  policy_denials : Txn.policy_denial list;
  policy_changed : bool;
}

(* Policy churn re-keys the permission-equivalence classes: a profile is
   a function of the policy (the user's applicable-rule list), so rule
   or isa churn can SPLIT a class — two users whose rules were identical
   now differ — or MERGE classes whose rules collapsed to the same list.
   The rekey regroups the logged-in population by new profile and builds
   one shared state per group, rebasing per CLASS, not per session:

     - a group containing the writer's (new) profile reuses the staged
       writer session — its perm was already re-resolved incrementally
       during staging (Perm.update_policy);
     - every other group rebases one old representative onto the new
       document (apply_delta) and the new policy (apply_policy, again
       the incremental path);
     - every group rebases the lazy view of the class its representative
       came from (its donor) along the same two deltas.  A rebase is
       pure, so an old class that feeds several new profiles (a split)
       donates to each of them.

   Group builds are pure and run on the pool, like login fan-outs.  Runs
   with the writer held, once the commit's epoch is published.
   [matched] is the document delta matched under the old policy. *)
let rekey t ~txn ~delta ~matched ~writer ~writer_cls ~writer_pdelta =
  Obs.Trace.with_span "serve.rekey" @@ fun () ->
  let policy = t.policy and flat = t.flat and source = t.source in
  let groups : (string, (string * shared) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun e ->
      let profile = Perm.profile policy ~user:e.user in
      match Hashtbl.find_opt groups profile with
      | Some l -> l := (e.user, e.cls) :: !l
      | None -> Hashtbl.add groups profile (ref [ (e.user, e.cls) ]))
    (Hashtbl.fold (fun _ e acc -> e :: acc) t.sessions []);
  (* Old profile -> new profiles it feeds: an old class feeding several
     is a split. *)
  let feeds : (string, string list ref) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun profile members ->
      List.iter
        (fun ((_, old) : string * shared) ->
          match Hashtbl.find_opt feeds old.profile with
          | Some ps -> if not (List.mem profile !ps) then ps := profile :: !ps
          | None -> Hashtbl.add feeds old.profile (ref [ profile ]))
        !members)
    groups;
  let splits =
    Hashtbl.fold
      (fun _ ps acc -> if List.length !ps > 1 then acc + 1 else acc)
      feeds 0
  in
  let merges =
    Hashtbl.fold
      (fun _ members acc ->
        let olds =
          List.sort_uniq String.compare
            (List.map (fun ((_, o) : string * shared) -> o.profile) !members)
        in
        if List.length olds > 1 then acc + 1 else acc)
      groups 0
  in
  let writer_profile = Perm.profile policy ~user:(Session.user writer) in
  let group_list =
    Hashtbl.fold (fun profile members acc -> (profile, !members) :: acc)
      groups []
  in
  let build (profile, members) =
    Obs.Metrics.inc m_fanout;
    (* The lazy-view donor [old0] must be the class whose perm change the
       rebase delta actually covers: for the writer's group that is the
       writer's OLD class (writer_pdelta spans exactly its re-resolution);
       any other old class merged into this profile would need its own
       old->new delta, which we don't have. *)
    let rep', pdelta, old0 =
      if String.equal profile writer_profile then
        (writer, writer_pdelta, writer_cls)
      else begin
        let user0, old0 = List.hd members in
        let rep = Session.impersonate old0.rep ~user:user0 in
        let rep =
          Obs.Trace.with_span "session.rebase" (fun () ->
              Session.apply_delta ~flat ?matched rep source delta)
        in
        let rep', pdelta =
          Obs.Trace.with_span "session.rekey" (fun () ->
              Session.apply_policy ~flat rep policy)
        in
        (rep', pdelta, old0)
      end
    in
    let lazy_view =
      rebase_view ~was:old0.rep ~now:rep' old0.lazy_view flat
        (Delta.union delta pdelta)
    in
    if Obs.Rulestats.enabled () then
      Obs.Rulestats.note_class ~profile
        ~keys:
          (List.map
             (fun (r : Rule.t) -> r.Rule.priority)
             (Policy.rules_for policy ~user:(Session.user rep')));
    ({ profile; rep = rep'; lazy_view; members = 0 }, members)
  in
  let built = Pool.map t.pool build group_list in
  locked t (fun () ->
      Hashtbl.reset t.classes;
      Hashtbl.reset t.sessions;
      List.iter
        (fun (cls, members) ->
          Hashtbl.replace t.classes cls.profile cls;
          List.iter (fun (user, _) -> register t ~user cls) members)
        built;
      sync_gauges t);
  Obs.Metrics.add m_class_splits splits;
  Obs.Metrics.add m_class_merges merges;
  Obs.Events.emit ?txn
    (Obs.Events.Rekey { classes = List.length built; splits; merges })

(* Every mutation routes through here: one Txn.commit_ops staging the
   whole mixed batch on the writer's (lazy) view, then — only on success —
   journal append (of the APPLIED ops: replay never re-litigates
   authority), publication under the lock, and either the per-batch
   broadcast fan-out (document-only batches) or a class rekey (the batch
   carried policy ops). *)
let commit_ops ?(on_denial = `Abort) ?admin t ~user ops =
  let t0 = Obs.Mono.now () in
  Obs.Trace.with_span "serve.commit" @@ fun () ->
  Obs.Trace.annotate "user" user;
  Obs.Trace.annotate "ops" (string_of_int (List.length ops));
  (* One correlation id covers the whole write: Txn.commit_ops reuses
     the ambient id, and the journal append / fsync / snapshot events
     inside Store.append inherit it from the same scope. *)
  let txn = Obs.Events.next_txn () in
  Obs.Events.with_txn txn @@ fun () ->
  Mutex.protect t.writer @@ fun () ->
  let e = entry_held t ~user in
  let cls = e.cls in
  (* One writer at a time: every class is on the published epoch, so the
     batch stages on the writer class's lazy view over the published
     snapshot — its first document op selects there, and its policy ops
     re-resolve on the view's snapshot. *)
  assert (
    Session.source cls.rep == t.source
    && Lazy_view.flat cls.lazy_view == t.flat);
  let index = t.index in
  match
    Txn.commit_ops ~on_denial ?admin ~view:cls.lazy_view
      (Session.impersonate cls.rep ~user) ops
  with
  | Error _ as err -> err
  | Ok
      ({ Txn.session = session'; reports; delta; applied; policy_denials; _ }
       as c) ->
    let source' = Session.source session' in
    (* Durability before visibility: the batch is in the journal before
       any reader can observe it. *)
    (match t.persist with
     | Some store when applied <> [] ->
       let mode =
         match on_denial with `Abort -> `Atomic | `Tolerate -> `Tolerant
       in
       ignore
         (Store.append store ~user ~mode ~doc:source'
            (List.map Op.to_journal applied))
     | _ -> ());
    (* The freeze runs outside the lock; the new epoch — map-backed
       store, columnar snapshot and (on churn) policy + timestamp clock
       — is published atomically under it.  A policy-only batch leaves
       the document untouched and skips the re-freeze; a local delta
       splices the published snapshot along its roots. *)
    let flat' =
      if source' == t.source then t.flat
      else
        match delta with
        | Delta.Local roots -> freeze ~from:(t.flat, roots) source'
        | Delta.All -> freeze source'
    in
    locked t (fun () ->
        t.source <- source';
        t.flat <- flat';
        t.writes <- t.writes + List.length reports;
        if c.Txn.policy_changed then begin
          t.policy <- c.Txn.policy;
          t.index <- Policy.index c.Txn.policy;
          t.clock <- max t.clock (Policy.next_priority c.Txn.policy)
        end);
    Obs.Metrics.add m_updates (List.length reports);
    (* The other classes' document rebases share one match of the delta
       under the policy they hold, on the new snapshot. *)
    let match_delta () =
      match delta with
      | Delta.Local (_ :: _ as roots) ->
        Some (Perm.match_delta index flat' roots)
      | Delta.Local [] | Delta.All -> None
    in
    if c.Txn.policy_changed then
      (* The rekey subsumes both the writer-class rebase and the
         broadcast: every class is regrouped and rebased exactly once
         against the new (document, policy) epoch. *)
      Obs.Metrics.time h_broadcast (fun () ->
          rekey t ~txn:(Some txn) ~delta ~matched:(match_delta ())
            ~writer:session' ~writer_cls:cls
            ~writer_pdelta:c.Txn.policy_delta)
    else begin
      (* The writer's class is already rebased by the transaction (the
         staged session shares the class's decision profile); its lazy
         view and every other class get the merged delta. *)
      cls.lazy_view <-
        rebase_view ~was:cls.rep ~now:session' cls.lazy_view flat' delta;
      cls.rep <- Session.impersonate session' ~user:(Session.user cls.rep);
      (* Fan-out over a lock-free snapshot: classes are disjoint, so
         workers never contend; pool size 1 reproduces the sequential
         broadcast exactly. *)
      let others =
        Hashtbl.fold
          (fun _ other acc -> if other == cls then acc else other :: acc)
          t.classes []
      in
      if reports <> [] then
        Obs.Metrics.time h_broadcast (fun () ->
            Obs.Trace.with_span "serve.broadcast" (fun () ->
                Obs.Trace.annotate "sessions"
                  (string_of_int (List.length others));
                Obs.Trace.annotate "pool" (string_of_int (Pool.size t.pool));
                Obs.Events.emit
                  (Obs.Events.Broadcast { sessions = List.length others });
                let matched = if others = [] then None else match_delta () in
                Pool.run t.pool
                  (List.map
                     (fun other slot ->
                       rebase_class ~slot ~txn ?matched ~flat:flat' source'
                         delta other)
                     others)))
    end;
    let seconds = Obs.Mono.now () -. t0 in
    Obs.Metrics.observe h_update seconds;
    if Obs.Timeseries.enabled () then
      Obs.Timeseries.observe Obs.Timeseries.default "update_seconds" seconds;
    Ok
      {
        reports;
        delta;
        policy_denials;
        policy_changed = c.Txn.policy_changed;
      }

let commit ?on_denial t ~user ops =
  commit_ops ?on_denial t ~user (Op.docs ops)

(* The historical per-op entry point, now a thin tolerant wrapper: §4.4.2
   semantics (partial per-target denials stay in the report) over a
   single-op transaction. *)
let update t ~user op =
  match commit ~on_denial:`Tolerate t ~user [ op ] with
  | Ok { reports = [ report ]; _ } -> report
  | Ok _ -> assert false
  | Error (Txn.Failed { exn; _ }) -> raise exn
  | Error err -> raise (Txn.Aborted err)

let update_all t ~user ops =
  match commit ~on_denial:`Tolerate t ~user ops with
  | Ok { reports; _ } -> reports
  | Error (Txn.Failed { exn; _ }) -> raise exn
  | Error err -> raise (Txn.Aborted err)
