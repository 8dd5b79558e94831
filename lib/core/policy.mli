(** A security policy: a subject hierarchy plus an ordered set of rules.
    Following §4.3, rules are issued one at a time and the issuing
    timestamp is the priority, so "the last issued command has the
    priority over the previous ones and possibly cancels them". *)

type t

val empty : t
val v : Subject.t -> Rule.t list -> t
(** @raise Invalid_argument if two rules share a priority. *)

val subjects : t -> Subject.t
val rules : t -> Rule.t list
(** Ascending priority. *)

val with_subjects : t -> Subject.t -> t

val grant :
  t -> Privilege.t -> path:string -> subject:string -> t
(** Appends an accept rule with the next timestamp.
    @raise Subject.Unknown_subject
    @raise Xpath.Parser.Error *)

val deny : t -> Privilege.t -> path:string -> subject:string -> t

val add_rule : t -> Rule.t -> t
(** Inserts a pre-timestamped rule.
    @raise Invalid_argument on a duplicate priority.
    @raise Subject.Unknown_subject *)

val revoke : t -> priority:int -> t
(** Removes the rule with the given timestamp (administrative deletion);
    unknown priorities are ignored. *)

val rule_with_priority : t -> priority:int -> Rule.t option

val add_isa : t -> sub:string -> super:string -> t
(** {!Subject.add_isa} lifted to the policy.
    @raise Subject.Unknown_subject
    @raise Subject.Cycle *)

val remove_isa : t -> sub:string -> super:string -> t
(** {!Subject.remove_isa} lifted to the policy.
    @raise Subject.Unknown_subject *)

val next_priority : t -> int

val rules_for : t -> user:string -> Rule.t list
(** The rules applicable to [user]: those whose subject [s'] satisfies
    [isa(user, s')], ascending priority.  One closure of [user]'s
    ancestors per call. *)

(** {1 Rule index}

    One policy version's rules as every permission class needs them: a
    user's applicable rules as a bitset over the rule positions
    (ascending priority), from one closure of the user's ancestors, and
    the downward rules compiled into one {!Xpath.Compile} automaton
    whose payloads are rule positions.  A commit then matches its delta
    once with the automaton, and each class keeps the matches its bitset
    holds ({!Perm.match_delta}).  Building one costs the rules, not the
    subject hierarchy.  An index never changes once built, apart from
    its automaton's determinisation run, which matches take turns on
    under a mutex; domains may share it.  Build it once per policy
    version. *)

type index

type applicable
(** One subject's applicable rules. *)

val index : t -> index

val indexed : index -> t
(** The policy the index was built from (physically). *)

val matcher : index -> int Xpath.Compile.shared option
(** The policy's downward rules in one automaton; a payload is the rule's
    position ({!rule_at}).  [None] when no rule is downward.  The
    automaton comes with the index's one determinisation run
    ({!Xpath.Compile.share}), so successive commits matched with it
    reuse the state sets earlier ones interned. *)

val rule_at : index -> int -> Rule.t
(** The rule at a position: positions count {!rules} from [0]. *)

val applicable : index -> user:string -> applicable
(** [user]'s applicable rules — the positions of {!rules_for}, from one
    ancestor closure. *)

val mem : applicable -> int -> bool
(** Does the rule at this position apply? *)

val local : applicable -> bool
(** Are all the applicable rules downward ({!Delta.local_rules})? *)

val pp : Format.formatter -> t -> unit
