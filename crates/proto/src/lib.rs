//! Communication protocol structures for NDPBridge.
//!
//! Section V-B of the paper defines three message types — *task*,
//! *data* and *state* messages (Figure 5), each at most 64 bytes with
//! larger payloads split into indexed sub-messages — and four bridge
//! commands forged from standard DDR commands on reserved row/column
//! addresses:
//!
//! | Command | DDR encoding | Purpose |
//! |---|---|---|
//! | `STATE-GATHER` | ACTIVATE to `R_ROW` | collect a child's state message |
//! | `GATHER` | READ to `R_COL` | drain `G_xfer` bytes from a child's mailbox |
//! | `SCATTER` | WRITE to `R_COL` | deliver `G_xfer` bytes of messages to a child |
//! | `SCHEDULE` | ACTIVATE with budget in the row address | start load balancing at a giver |
//!
//! This crate models the wire formats of task and data messages
//! ([`message`]) and the per-unit and per-bridge mailbox ring buffers
//! ([`mailbox`]). State messages never enter a mailbox: the simulator
//! models what STATE-GATHER collects as `ndpb_core::bridge::ChildState`. The commands
//! themselves are not modelled as C/A-link traffic: the simulator
//! (`ndpb-core`) charges each GATHER/SCATTER as the DQ transfer of its
//! payload plus the bank access on the controller's reserved rows, and
//! issues the forged command slots for free.

#![warn(missing_docs)]

pub mod mailbox;
pub mod message;

pub use mailbox::{Mailbox, MailboxFull};
pub use message::{DataMessage, Message, MAX_MESSAGE_BYTES};
